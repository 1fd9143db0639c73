import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dirac_double_barrier import (
    EVAL_MARGIN,
    BoundaryEnergy,
    ConfigError,
    MatrixRange,
    PotentialConfig,
    Region,
    SingularEnergy,
    Zone,
    classify,
    core,
    kinematics,
    singular_energies,
    special_energies,
    zone_interval,
)


def test_half_width_is_sum_of_parts(reference):
    assert reference.a == 5.5


def test_potential_levels(reference):
    assert reference.potential(Region.ZERO) == 0.0
    assert reference.potential(Region.PLUS) == 8.0
    assert reference.potential(Region.MINUS) == 4.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(v_plus=8.0, v_minus=2.0, a_plus=3.0, a_minus=2.5),
        dict(v_plus=8.0, v_minus=1.2, a_plus=3.0, a_minus=2.5),
        dict(v_plus=5.9, v_minus=4.0, a_plus=3.0, a_minus=2.5),
        dict(v_plus=8.0, v_minus=4.0, a_plus=0.0, a_minus=2.5),
        dict(v_plus=8.0, v_minus=4.0, a_plus=3.0, a_minus=-1.0),
        dict(v_plus=8.0, v_minus=4.0, a_plus=3.0, a_minus=2.5, m=0.0),
        dict(v_plus=8.0, v_minus=4.2, a_plus=3.0, a_minus=2.5, m=2.0),
    ],
)
def test_structural_conditions_are_enforced(kwargs):
    with pytest.raises(ConfigError):
        PotentialConfig(**kwargs)


def test_mass_scaled_structure_is_accepted():
    cfg = PotentialConfig(v_plus=16.0, v_minus=8.0, a_plus=1.5, a_minus=1.25, m=2.0)
    assert cfg.a == 2.75


def test_singular_energies_of_reference(reference):
    assert singular_energies(reference) == [1.0, 3.0, 5.0, 7.0, 9.0]


def test_special_energies_of_reference(reference):
    assert special_energies(reference) == (1.0, 3.0, 4.0, 5.0, 7.0, 8.0, 9.0)
    cfg = PotentialConfig(v_plus=16.0, v_minus=8.0, a_plus=1.5, a_minus=1.25, m=2.0)
    assert special_energies(cfg) == (2.0, 6.0, 8.0, 10.0, 14.0, 16.0, 18.0)


def test_nudge_keeps_the_side(reference):
    margin = EVAL_MARGIN * reference.m
    e = np.array([3.0, 3.0 - 4e-7, 3.0 + 4e-7, 4.0 - margin, 6.5, 9.0 + 2e-6])
    assert core.nudge(e, reference).tolist() == [
        3.0 + margin, 3.0 - margin, 3.0 + margin, 4.0 - margin, 6.5, 9.0 + 2e-6,
    ]
    assert e[0] == 3.0  # the input is left alone
    # each energy is nudged as it would be alone
    assert core.nudge(e, reference).tolist() == [core.nudge(x, reference) for x in e.tolist()]


def test_nudge_of_a_float_is_a_float(reference):
    got = core.nudge(1.0, reference)
    assert type(got) is float
    assert got == 1.0 + EVAL_MARGIN * reference.m
    assert core.nudge(1.0 - 1e-7, reference) == 1.0 - EVAL_MARGIN * reference.m
    assert core.nudge(2.0, reference) == 2.0


def test_nudged_points_stay_put_under_a_second_nudge(reference):
    e = np.linspace(1.0, 9.0, 33)
    once = core.nudge(e, reference)
    assert min(np.abs(once - s).min() for s in special_energies(reference)) >= (
        EVAL_MARGIN * (1.0 - 1e-9))
    assert core.nudge(once, reference).tolist() == once.tolist()


# The threshold screens test only the special energies within reach of an
# array's span.  The references below test every one of them.

def _nudge_every(e, cfg):
    """nudge with every special energy tested, in ascending order."""
    margin = EVAL_MARGIN * cfg.m
    out = np.array(e, dtype=float)
    for s in special_energies(cfg):
        near = np.abs(out - s) < margin
        if near.any():
            out[near] = np.where(out[near] >= s, s + margin, s - margin)
    return out


def _first_bad(e, table, tol, floor=-math.inf):
    """First energy, in array order, at or below floor or within tol of an
    entry of table, tested against every entry; None where none is."""
    for x in np.ravel(e).tolist():
        if x <= floor or any(abs(x - s) < tol for s in table):
            return x
    return None


def _outcome(check, e, *args):
    """(type, energy, message) of what check raises on e, or None."""
    try:
        check(e, *args)
    except (BoundaryEnergy, SingularEnergy) as exc:
        return type(exc), exc.energy, str(exc)
    return None


def _screen_cases():
    """(cfg, arrays): random arrays, arrays whose span ends at, inside or
    just past each special energy's bands, 0-d arrays and empty ones."""
    rng = np.random.default_rng(5)
    cfgs = [
        PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=3.0, a_minus=2.5),
        PotentialConfig(v_plus=16.0, v_minus=8.0, a_plus=1.5, a_minus=1.25, m=2.0),
        # v_minus + m and v_plus - m 1e-7 m apart, closer than a margin
        PotentialConfig(v_plus=4.0 + 2.0 + 1e-7, v_minus=4.0, a_plus=3.0, a_minus=2.5),
        # 1.5 margins apart: a move off the first can land near the second
        PotentialConfig(v_plus=4.0 + 2.0 + 1.5e-6, v_minus=4.0, a_plus=3.0, a_minus=2.5),
    ]
    for cfg in cfgs:
        margin, tol = EVAL_MARGIN * cfg.m, core.SINGULAR_TOL * cfg.m
        arrays = [np.array([]), rng.uniform(0.5 * cfg.m, cfg.v_plus + 3.0 * cfg.m, 500)]
        for s in special_energies(cfg):
            for d in (-2.0 * margin, -margin, -0.999 * margin, -0.5 * margin, -tol,
                      -0.5 * tol, 0.0, 0.5 * tol, tol, 0.1 * margin, 0.5 * margin,
                      margin, 1.001 * margin, 2.0 * margin):
                edge = s + d
                arrays.append(np.array(edge))
                arrays.append(np.array([edge]))
                inside = rng.uniform(0.0, 0.5 * cfg.m, 40)
                arrays.append(rng.permutation(np.append(edge + inside, edge)))
                arrays.append(np.append(edge - inside, edge))
        yield cfg, arrays


@pytest.mark.parametrize("cfg, arrays", list(_screen_cases()), ids=["reference", "m=2",
                                                                    "1e-7 apart",
                                                                    "1.5 margins apart"])
def test_span_limited_screens_match_testing_every_special_energy(cfg, arrays):
    tol = core.SINGULAR_TOL * cfg.m
    levels = [cfg.potential(region) for region in Region]
    for e in arrays:
        got = core.nudge(e, cfg)
        assert type(got) is np.ndarray and got.shape == e.shape
        assert got.tobytes() == _nudge_every(e, cfg).tobytes(), e
        # the callers' fresh arrays are nudged in place, to the same bits
        own = np.array(e, dtype=float)
        assert core._nudge_in_place(own, cfg) is own and own.tobytes() == got.tobytes()
        x = _first_bad(e, special_energies(cfg)[1:], tol, floor=cfg.m + tol)
        assert _outcome(core.screen, e, cfg) == (
            None if x is None else _outcome(core.screen, x, cfg)), e
        table = [s for u in levels for s in (u - cfg.m, u + cfg.m)]
        x = _first_bad(e, table, tol)
        assert _outcome(core._reject_singular, e, levels, cfg) == (
            None if x is None else _outcome(core._reject_singular, x, levels, cfg)), e


def test_a_move_chains_onto_a_special_energy_past_the_span():
    # v_plus - m lies 1.5 margins above v_minus + m; an energy 0.1 margin
    # above v_minus + m moves up one margin, to within half a margin of
    # v_plus - m, which then moves it down, although no energy of the
    # array lay within a margin of v_plus - m
    cfg = PotentialConfig(v_plus=4.0 + 2.0 + 1.5e-6, v_minus=4.0, a_plus=3.0, a_minus=2.5)
    margin = EVAL_MARGIN * cfg.m
    e = np.array([5.0 + 0.1 * margin])
    assert core.nudge(e, cfg).tolist() == [(cfg.v_plus - cfg.m) - margin]


def test_zone_intervals_of_reference(reference):
    assert zone_interval(Zone.LOWER_KLEIN, reference) == (1.0, 3.0)
    assert zone_interval(Zone.GAP_LOWER, reference) == (3.0, 5.0)
    assert zone_interval(Zone.HIGHER_KLEIN, reference) == (5.0, 7.0)
    assert zone_interval(Zone.CONVENTIONAL, reference) == (7.0, 9.0)
    lo, hi = zone_interval(Zone.ABOVE_BARRIER, reference)
    assert lo == 9.0 and math.isinf(hi)


@pytest.mark.parametrize(
    "e,rng,zone",
    [
        (2.0, MatrixRange.I, Zone.LOWER_KLEIN),
        (3.5, MatrixRange.I, Zone.GAP_LOWER),
        (4.5, MatrixRange.II, Zone.GAP_LOWER),
        (6.0, MatrixRange.II, Zone.HIGHER_KLEIN),
        (7.5, MatrixRange.II, Zone.CONVENTIONAL),
        (8.5, MatrixRange.III, Zone.CONVENTIONAL),
        (9.5, MatrixRange.III, Zone.ABOVE_BARRIER),
        (30.0, MatrixRange.III, Zone.ABOVE_BARRIER),
    ],
)
def test_classification(reference, monkeypatch, e, rng, zone):
    assert classify(e, reference) == (rng, zone)
    # a 0-d or one-element array takes the array path, which bisects nothing
    monkeypatch.setattr(core, "bisect_right", None)
    assert classify(np.array(e), reference) == (rng, zone)
    ranges, zones = classify(np.array([e]), reference)
    assert ranges.tolist() == [rng] and zones.tolist() == [zone]


@pytest.mark.parametrize("e", [0.5, 1.0, 3.0, 4.0 + 1e-12, 5.0, 7.0, 8.0, 9.0 - 1e-13])
def test_classify_rejects_boundaries(reference, monkeypatch, e):
    with pytest.raises(BoundaryEnergy) as alone:
        classify(e, reference)
    # a 0-d or one-element array is screened as an array, over its span,
    # and raises what its energy raises alone
    spans, span = [], core._span
    monkeypatch.setattr(core, "_span", lambda a: spans.append(a.shape) or span(a))
    for array in (np.array(e), np.array([e])):
        with pytest.raises(BoundaryEnergy) as got:
            classify(array, reference)
        assert (got.value.energy, str(got.value)) == (alone.value.energy, str(alone.value))
    assert spans == [(), (1,)]


def test_wave_vector_oscillatory_branch(reference):
    k = kinematics(2.0, Region.ZERO, reference).k
    assert abs(k - 1j * math.sqrt(3.0)) < 1e-14
    k = kinematics(2.0, Region.PLUS, reference).k
    assert abs(k - 1j * math.sqrt(35.0)) < 1e-14


def test_wave_vector_evanescent_branch(reference):
    k = kinematics(7.5, Region.PLUS, reference).k
    assert abs(k - math.sqrt(0.75)) < 1e-14
    k = kinematics(4.2, Region.MINUS, reference).k
    assert abs(k - math.sqrt(0.96)) < 1e-14


@pytest.mark.parametrize("e,region", [(2.0, Region.ZERO), (7.5, Region.PLUS), (4.2, Region.MINUS)])
def test_dispersion_identity(reference, e, region):
    # k^2 + (E - U)^2 = m^2 on both branches
    k = kinematics(e, region, reference).k
    d = e - reference.potential(region)
    assert abs(k * k + d * d - reference.m**2) < 1e-12


@pytest.mark.parametrize("e,region", [
    (3.0, Region.MINUS),
    (5.0, Region.MINUS),
    (7.0, Region.PLUS),
    (9.0, Region.PLUS),
    (1.0 + 1e-12, Region.ZERO),
])
def test_singular_energies_are_rejected(reference, e, region):
    with pytest.raises(SingularEnergy):
        kinematics(e, region, reference)


@pytest.mark.parametrize("e,region,sign", [
    (7.5, Region.PLUS, 1.0),    # evanescent
    (4.2, Region.MINUS, 1.0),
    (2.0, Region.ZERO, -1.0),   # oscillatory
    (2.0, Region.MINUS, -1.0),
    (9.5, Region.PLUS, -1.0),
])
def test_weight_product_sign(reference, e, region, sign):
    kin = kinematics(e, region, reference)
    assert abs(kin.alpha * kin.beta - sign) < 1e-12


#: Scalar calls into core, as reprs or error messages.  The test runs them
#: here and in a fresh interpreter where numpy cannot be imported.
SCALAR_CALLS = """\
from dirac_double_barrier import (DoubleBarrierError, PotentialConfig, Region, Zone,
                                  classify, kinematics, singular_energies, special_energies,
                                  zone_interval)
from dirac_double_barrier.core import screen

def call(fn, *args):
    try:
        return repr(fn(*args))
    except DoubleBarrierError as exc:
        return f"{type(exc).__name__}: {exc}"

cfg = PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=3.0, a_minus=2.5)
results = [repr(cfg), call(PotentialConfig, 5.0, 4.0, 3.0, 2.5),
           repr(special_energies(cfg)), repr(singular_energies(cfg)),
           *(repr(zone_interval(zone, cfg)) for zone in Zone)]
for e in (0.5, 1.0, 2.0, 3.0, 4.0 + 1e-12, 4.5, 6.0, 7.0, 7.5, 8.5, 9.0 - 1e-13, 30.0):
    results += [call(classify, e, cfg), call(screen, e, cfg),
                *(call(kinematics, e, region, cfg) for region in Region)]
"""


def test_scalar_paths_run_without_numpy():
    src = str(Path(core.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    # None in sys.modules makes every import of numpy raise ImportError
    code = "import sys\nsys.modules['numpy'] = None\n" + SCALAR_CALLS + "print(repr(results))"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    namespace = {}
    exec(SCALAR_CALLS, namespace)
    assert proc.stdout.strip() == repr(namespace["results"])
