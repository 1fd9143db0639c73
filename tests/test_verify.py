import math
import time

import numpy as np
import pytest

from dirac_double_barrier import (
    oracle,
    run_verification,
    sample_energies,
    singular_energies,
    solve_amplitudes,
    special_energies,
)
from dirac_double_barrier import verify as verify_mod
from dirac_double_barrier.core import EVAL_MARGIN
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


def one_round_per_n(cfg, n, seed, e_min, e_max):
    """The sampler's original loop: rounds of n draws until n are kept."""
    bad = special_energies(cfg)
    width = EVAL_MARGIN * cfg.m
    rng = np.random.default_rng(seed)
    out = np.empty(0)
    while out.size < n:
        draws = rng.uniform(e_min, e_max, size=n)
        keep = np.ones(n, dtype=bool)
        for b in bad:
            keep &= np.abs(draws - b) > width
        out = np.concatenate([out, draws[keep]])
    return out[:n].tolist()


# slivers of 1e-9 and 3e-10 beside the band around v_minus = 4, a window
# with a sliver on either side of it, one across three bands, and the
# verify default window
SAMPLING_WINDOWS = [
    (100, 4.0 - EVAL_MARGIN - 1e-9, 4.0 + EVAL_MARGIN / 2),
    (40, 4.0 - EVAL_MARGIN - 3e-10, 4.0 + EVAL_MARGIN / 2),
    (50, 4.0 - EVAL_MARGIN - 2e-9, 4.0 + EVAL_MARGIN + 2e-9),
    (300, 2.5, 5.5),
    (2000, 1.001, 12.0),
]


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("n, e_min, e_max", SAMPLING_WINDOWS)
def test_sampling_keeps_the_values_of_the_one_round_per_n_loop(reference, seed, n,
                                                                e_min, e_max):
    want = one_round_per_n(reference, n, seed, e_min, e_max)
    assert sample_energies(reference, n, seed, e_min, e_max) == want


@pytest.mark.parametrize("n, e_min, e_max", SAMPLING_WINDOWS)
def test_sampling_in_many_small_rounds_keeps_the_values(reference, monkeypatch, n,
                                                        e_min, e_max):
    # the kept values filter one stream of draws, whatever the round sizes
    monkeypatch.setattr(verify_mod, "_ROUND_MAX", 7)
    want = one_round_per_n(reference, n, 3, e_min, e_max)
    assert sample_energies(reference, n, 3, e_min, e_max) == want


def test_sliver_too_thin_to_fill_is_refused_at_once(reference):
    # 1e-13 of admissible length beside the band around v_minus = 4: the
    # one-round-per-n loop would need about 1.5e9 draws for 100 samples
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"leaves only 9\.99e-14 of its length .* "
                                         r"about 1\.5e\+09 draws, more than the cap"):
        sample_energies(reference, 100, 0, 4.0 - EVAL_MARGIN - 1e-13,
                        4.0 + EVAL_MARGIN / 2)
    assert time.perf_counter() - start < 0.5


def test_draws_that_run_past_the_cap_are_refused(reference, monkeypatch):
    # half of the window is admissible, so 50 samples take about 100 draws;
    # seed 0 keeps fewer than 50 of its first 101
    monkeypatch.setattr(verify_mod, "_MAX_DRAWS", 101)
    with pytest.raises(ValueError, match="the cap of 101 draws kept 4[0-9] of 50 samples"):
        sample_energies(reference, 50, 0, 4.0 - 3e-6, 4.0 + 1e-6)
    assert len(sample_energies(reference, 50, 2, 4.0 - 3e-6, 4.0 + 1e-6)) == 50


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
