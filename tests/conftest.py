import gc

import pytest

from dirac_double_barrier import (
    PotentialConfig,
    attach_widths,
    find_above_barrier,
    find_resonances,
)


@pytest.fixture(autouse=True)
def collector_never_frozen():
    """Only cli.run freezes the collector, as its process ends; no library
    function and no in-process cli.main call may."""
    yield
    frozen = gc.get_freeze_count()
    if frozen:
        gc.unfreeze()
        pytest.fail(f"the test left {frozen} objects frozen out of the collector")


@pytest.fixture(scope="session")
def reference():
    return PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=3.0, a_minus=2.5)


@pytest.fixture(scope="session")
def reference_resonances(reference):
    return find_resonances(reference) + find_above_barrier(reference, 11.0)


@pytest.fixture(scope="session")
def reference_widths(reference, reference_resonances):
    return attach_widths(reference_resonances, reference)
