import math

import numpy as np
import pytest

from dirac_double_barrier import (
    PotentialConfig,
    oracle,
    run_verification,
    sample_energies,
    singular_energies,
    solve_amplitudes,
    special_energies,
)
from dirac_double_barrier import verify as verify_mod
from dirac_double_barrier.core import EVAL_MARGIN, nudge
from dirac_double_barrier.transfer import Matrix2x2, full_matrix


@pytest.mark.parametrize("a_plus, a_minus, samples, seed", [
    (3.0, 2.5, 500, 1), (5.0, 2.5, 500, 1), (9.0, 2.5, 500, 1), (16.0, 2.5, 500, 1),
    (3.0, 3.5, 500, 1), (3.0, 4.0, 500, 1),
    # these seeds draw energies about 1e-6 above v_minus - m, where the
    # oracle's slope once lost digits to (m + E) - U
    (3.0, 2.5, 10_000, 2077), (3.0, 2.5, 10_000, 9527),
])
def test_reference_invariants_hold(a_plus, a_minus, samples, seed):
    # the reference potential, then wider barriers and floors, where the
    # entries of M grow like e^{2 kappa a} and det M - 1 is the roundoff
    # of a difference of two such products
    cfg = PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=a_plus, a_minus=a_minus)
    report = run_verification(cfg, samples=samples, seed=seed)
    assert report.passed, report.render()
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
    """The rejection sampler verify once had: rounds of n draws until n are kept."""
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


# a window across three bands and the verify default window
@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("n, e_min, e_max", [(300, 2.5, 5.5), (2000, 1.001, 12.0)])
def test_sampling_keeps_the_values_of_the_one_round_per_n_loop(reference, seed, n,
                                                                e_min, e_max):
    # no draw of these seeds falls in a band, so the rejection sampler
    # kept every one of them: the samples are unchanged
    want = one_round_per_n(reference, n, seed, e_min, e_max)
    assert sample_energies(reference, n, seed, e_min, e_max) == want


# slivers of 1e-9 and 3e-10 beside the band around v_minus = 4, where
# most draws land in the band, a window with a sliver on either side of
# it, one across three bands, and the verify default window
@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize("n, e_min, e_max", [
    (100, 4.0 - EVAL_MARGIN - 1e-9, 4.0 + EVAL_MARGIN / 2),
    (40, 4.0 - EVAL_MARGIN - 3e-10, 4.0 + EVAL_MARGIN / 2),
    (50, 4.0 - EVAL_MARGIN - 2e-9, 4.0 + EVAL_MARGIN + 2e-9),
    (300, 2.5, 5.5),
    (2000, 1.001, 12.0),
])
def test_samples_are_the_nudged_uniform_draws(reference, seed, n, e_min, e_max):
    draws = np.random.default_rng(seed).uniform(e_min, e_max, size=n)
    assert sample_energies(reference, n, seed, e_min, e_max) == nudge(draws, reference).tolist()


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_default_window_samples_are_the_plain_draws(reference, seed):
    n = verify_mod.DEFAULT_SAMPLES
    draws = np.random.default_rng(seed).uniform(1.001, 12.0, size=n)
    assert sample_energies(reference, n, seed) == draws.tolist()


def test_a_draw_in_a_band_moves_to_its_edge(reference):
    # draw 4805 of seed 44 is 8.00000032, inside the band around v_plus
    draws = np.random.default_rng(44).uniform(1.001, 12.0, size=10_000)
    assert abs(draws[4805] - 8.0) < EVAL_MARGIN
    samples = sample_energies(reference, 10_000, 44)
    assert samples[4805] == 8.0 + EVAL_MARGIN
    assert samples[:4805] == draws[:4805].tolist()


def test_window_beside_a_band_is_sampled_at_once(reference):
    # only 1e-13 of the window lies outside the band around v_minus = 4
    e_min, e_max = 4.0 - EVAL_MARGIN - 1e-13, 4.0 + EVAL_MARGIN / 2
    width = EVAL_MARGIN * reference.m
    samples = sample_energies(reference, 100, 0, e_min, e_max)
    assert len(samples) == 100
    for e in samples:
        assert min(abs(e - b) for b in special_energies(reference)) >= width * (1 - 1e-9)
        assert e_min - width * (1 + 1e-9) <= e <= e_max + width * (1 + 1e-9)


@pytest.mark.parametrize("a_plus, a_minus", [
    (3.0, 2.5), (5.0, 2.5), (9.0, 2.5), (16.0, 2.5), (3.0, 3.5), (3.0, 4.0),
])
def test_invariants_hold_at_the_band_edges(a_plus, a_minus):
    # about a third of the draws in a window of 3e-6 around a special
    # energy land on an edge of its band, where the oracle's slope once
    # lost digits
    cfg = PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=a_plus, a_minus=a_minus)
    for s in special_energies(cfg)[1:]:
        report = run_verification(cfg, 200, seed=0, e_min=s - 3e-6, e_max=s + 3e-6)
        assert report.passed, report.render()


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


@pytest.mark.parametrize("tolerance", [math.nan, math.inf, 0.0, -1.0])
def test_tolerance_must_be_positive_and_finite(reference, tolerance):
    # inf passes every check and nan, 0 or -1 fail every one, whatever the engine does
    with pytest.raises(ValueError, match=f"tolerance must be positive and finite, got {tolerance}"):
        run_verification(reference, samples=50, tolerance=tolerance)


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

    # a real scale keeps both conjugation symmetries but moves det M by
    # 2e-9 of the size of its products, which the scaled check must see
    failed = failures_with(lambda m: Matrix2x2(*(x * (1.0 + 1e-9) for x in m)))
    assert "det M = 1" in failed
    assert "M11 = conj(M22)" not in failed
    assert "M12 = conj(M21)" not in failed


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
