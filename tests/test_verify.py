import math

import numpy as np
import pytest

from dirac_double_barrier import (
    oracle,
    run_verification,
    sample_energies,
    singular_energies,
    solve_amplitudes,
)
from dirac_double_barrier import verify as verify_mod
from dirac_double_barrier.transfer import Matrix2x2, full_matrix


def test_reference_invariants_hold(reference):
    report = run_verification(reference, samples=500, seed=1)
    assert report.passed
    assert len(report.checks) == 5
    for check in report.checks:
        assert check.worst < 1e-10, check.name


def test_sampling_is_seeded(reference):
    first = sample_energies(reference, 200, seed=42)
    second = sample_energies(reference, 200, seed=42)
    other = sample_energies(reference, 200, seed=43)
    assert first == second
    assert first != other
    assert len(first) == 200


def test_sampling_avoids_degenerate_neighborhoods(reference):
    bad = set(singular_energies(reference)) | {reference.v_minus, reference.v_plus}
    for e in sample_energies(reference, 500, seed=3, e_min=1.001, e_max=12.0):
        assert 1.001 <= e <= 12.0
        assert min(abs(e - b) for b in bad) > 1e-6


def test_window_must_sit_above_threshold(reference):
    with pytest.raises(ValueError):
        sample_energies(reference, 10, seed=0, e_min=0.5)
    with pytest.raises(ValueError):
        sample_energies(reference, 10, seed=0, e_min=3.0, e_max=2.0)


@pytest.mark.parametrize("e_min, e_max", [
    (1.01, math.inf),
    (None, math.inf),
    (math.nan, 4.0),
    (2.0, math.nan),
])
def test_window_must_be_finite(reference, e_min, e_max):
    with pytest.raises(ValueError, match="must be finite"):
        sample_energies(reference, 10, seed=0, e_min=e_min, e_max=e_max)


def test_window_inside_a_rejection_band_is_refused(reference):
    # every draw would be rejected, so drawing could never finish
    with pytest.raises(ValueError, match="excluded energy 3"):
        sample_energies(reference, 10, seed=0, e_min=3.0 - 1e-7, e_max=3.0 + 1e-7)


def test_report_names_every_check(reference):
    report = run_verification(reference, samples=50, seed=2)
    text = report.render()
    assert text.count("PASS") == 5
    assert "all invariants hold" in text
    assert "flux" in text and "det M" in text and "boundary matching" in text


def test_failures_are_named(reference):
    report = run_verification(reference, samples=50, seed=2, tolerance=1e-22)
    assert not report.passed
    assert report.failures
    text = report.render()
    assert "FAIL" in text
    assert "FAILED:" in text
    for check in report.failures:
        assert check.name in text


def test_injected_corruption_is_pinned_to_its_invariant(reference, monkeypatch):
    def failures_with(corrupt):
        monkeypatch.setattr(verify_mod, "full_matrix",
                            lambda e, cfg: corrupt(full_matrix(e, cfg)))
        report = verify_mod.run_verification(reference, samples=50, seed=2)
        assert "FAILED:" in report.render()
        return {c.name for c in report.failures}

    failed = failures_with(lambda m: Matrix2x2(m.m11, m.m12 + 1e-6, m.m21, m.m22))
    assert "M12 = conj(M21)" in failed
    # flux and the oracle only see m11 and m21, so they must stay clean
    assert "flux |T|^2 + |R|^2 = 1" not in failed
    assert "transfer vs boundary matching" not in failed

    # T = 1/M11 does not see M21, so the oracle check must catch it through R
    failed = failures_with(lambda m: Matrix2x2(m.m11, m.m12, m.m21 + 1e-6, m.m22))
    assert "transfer vs boundary matching" in failed
    assert "M11 = conj(M22)" not in failed


def test_oracle_is_called_once_per_chunk_at_most(reference, monkeypatch):
    calls = []

    def counted(e, cfg):
        calls.append(np.size(e))
        return solve_amplitudes(e, cfg)

    monkeypatch.setattr(verify_mod, "solve_amplitudes", counted)
    samples = 2 * oracle._CHUNK + 1
    assert verify_mod.run_verification(reference, samples=samples, seed=3).passed
    assert len(calls) <= math.ceil(samples / oracle._CHUNK)
    assert sum(calls) == samples
