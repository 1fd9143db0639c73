import cmath
import math

import numpy as np
import pytest

from dirac_double_barrier import (
    PotentialConfig,
    oracle,
    run_verification,
    sample_energies,
    scatter,
    singular_energies,
    solve_amplitudes,
    special_energies,
)
from dirac_double_barrier import transfer
from dirac_double_barrier import verify as verify_mod
from dirac_double_barrier.core import EVAL_MARGIN, nudge
from dirac_double_barrier.errors import NumericalOverflow, SingularSystem

FLUX = "flux |T|^2 + |R|^2 = 1"
MIRROR = "mirror Re(R conj T) = 0"
ORACLE = "walk vs boundary matching"


@pytest.mark.parametrize("a_plus, a_minus, samples, seed", [
    (3.0, 2.5, 500, 1), (5.0, 2.5, 500, 1), (9.0, 2.5, 500, 1), (16.0, 2.5, 500, 1),
    (3.0, 3.5, 500, 1), (3.0, 4.0, 500, 1),
    # these seeds draw energies about 1e-6 above v_minus - m, where the
    # oracle's slope once lost digits to (m + E) - U
    (3.0, 2.5, 10_000, 2077), (3.0, 2.5, 10_000, 9527),
    # past the double range of the transfer-matrix product, whose entries
    # grow like e^{2 kappa a_plus}; the walk stays bounded
    (400.0, 2.5, 2000, 1), (2000.0, 2.5, 2000, 1),
])
def test_reference_invariants_hold(a_plus, a_minus, samples, seed):
    # the reference potential, then wider barriers and floors
    cfg = PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=a_plus, a_minus=a_minus)
    report = run_verification(cfg, samples=samples, seed=seed)
    assert report.passed, report.render()
    assert [c.name for c in report.checks] == [FLUX, MIRROR, ORACLE]
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
    assert text.count("PASS") == 3
    assert "all invariants hold" in text
    for name in (FLUX, MIRROR, ORACLE):
        assert f"PASS  {name}" in text
    assert "det M" not in text and "M11" not in text


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


@pytest.mark.parametrize("samples", [0, -3])
def test_samples_must_be_at_least_one(reference, samples):
    # the message names the caller's parameter, not sample_energies' n
    with pytest.raises(ValueError, match=f"^samples must be at least 1, got {samples}$"):
        run_verification(reference, samples=samples)


def test_injected_corruption_is_pinned_to_its_invariant(reference, monkeypatch):
    def failures_with(corrupt):
        monkeypatch.setattr(verify_mod, "scatter", lambda e, cfg: corrupt(scatter(e, cfg)))
        report = verify_mod.run_verification(reference, samples=50, seed=2)
        assert "FAILED:" in report.render()
        return {c.name for c in report.failures}

    # the printed |T|^2 feeds the flux line alone
    assert failures_with(lambda s: s._replace(t2=s.t2 + 1e-6)) == {FLUX}
    # a real scale of T leaves the printed |T|^2 alone and moves
    # Re(R conj T) only by its own roundoff, so the oracle alone sees it
    assert failures_with(lambda s: s._replace(t=s.t * (1.0 + 1e-6))) == {ORACLE}
    # a phase on R moves Re(R conj T) off 0 by up to |R T| sin(1e-6)
    failed = failures_with(lambda s: s._replace(r=s.r * cmath.exp(1e-6j)))
    assert MIRROR in failed
    assert FLUX not in failed


def test_verification_never_forms_the_transfer_matrix_product(reference, monkeypatch):
    def refuse(e, cfg):
        raise AssertionError("verify formed the transfer-matrix product")

    for module, name in ((verify_mod, "full_matrix"), (transfer, "full_matrix"),
                         (transfer, "factor_matrices")):
        monkeypatch.setattr(module, name, refuse)
    assert verify_mod.run_verification(reference, samples=200, seed=1).passed


@pytest.mark.parametrize("a_plus, vanished", [(3.0, 0), (400.0, 655), (2000.0, 1809)])
def test_the_mirror_line_holds_trivially_where_the_barrier_decay_underflows(a_plus, vanished):
    # README's count: T is exactly 0 at these draws (10,000 samples, seed
    # 1), so Re(R conj T) reads 0 there and flux reduces to |R|^2 = 1
    cfg = PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=a_plus, a_minus=2.5)
    walk = scatter(np.array(sample_energies(cfg, 10_000, seed=1)), cfg)
    zero = walk.t == 0
    assert zero.sum() == vanished
    assert (walk.t2[zero] == 0).all()
    assert np.abs(walk.r2[zero] - 1.0).max(initial=0.0) < 1e-15


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


def one_shot(cfg, samples, seed):
    """Each check's (worst, at_energy) from one walk and one oracle solve
    over all samples, as verify once reduced them."""
    energies = sample_energies(cfg, samples, seed)
    e = np.array(energies)
    walk, matched = scatter(e, cfg), solve_amplitudes(e, cfg)
    devs = (
        np.abs(walk.t2 + walk.r2 - 1.0),
        np.abs((walk.r * walk.t.conjugate()).real),
        np.maximum(np.abs(walk.t - matched.t), np.abs(walk.r - matched.r)),
    )
    return [(float(d.max()), energies[int(d.argmax())]) for d in devs]


# one energy past a whole block joins it; 16,385 is past the 16,384-energy
# size at which numpy's temporary elision can change an array's rounding
@pytest.mark.parametrize("seed", [1, 4])
@pytest.mark.parametrize("samples", [1, 2, 2047, 2048, 2049, 4097, 16_385, 20_000])
def test_the_streamed_worsts_are_those_of_one_pass(reference, samples, seed):
    report = run_verification(reference, samples=samples, seed=seed)
    got = [(c.worst, c.at_energy) for c in report.checks]
    assert [(w.hex(), e.hex()) for w, e in got] == \
        [(w.hex(), e.hex()) for w, e in one_shot(reference, samples, seed)]


def corrupt_samples(monkeypatch, energies, changes):
    """Patch verify.scatter to set t2 = value, r2 = 0 at the sample of each
    index -> value, so flux reads |value - 1| there."""
    def corrupted(e, cfg):
        s = scatter(e, cfg)
        t2, r2 = s.t2.copy(), s.r2.copy()
        for index, value in changes.items():
            at = e == energies[index]
            t2[at], r2[at] = value, 0.0
        return s._replace(t2=t2, r2=r2)

    monkeypatch.setattr(verify_mod, "scatter", corrupted)


def flux_check(report):
    (check,) = (c for c in report.checks if c.name == FLUX)
    return check


def test_the_first_nan_is_named_past_a_finite_maximum(reference, monkeypatch):
    block = verify_mod._BLOCK
    energies = sample_energies(reference, 3 * block, 2)
    corrupt_samples(monkeypatch, energies,
                    {5: 9.0, block + 17: math.nan, 2 * block + 3: math.nan})
    report = verify_mod.run_verification(reference, samples=3 * block, seed=2)
    check = flux_check(report)
    assert math.isnan(check.worst)
    assert check.at_energy == energies[block + 17]
    assert not report.passed


def test_the_first_of_equal_maxima_is_named(reference, monkeypatch):
    block = verify_mod._BLOCK
    energies = sample_energies(reference, 3 * block, 2)
    corrupt_samples(monkeypatch, energies, {block + 40: 5.0, 2 * block + 7: 5.0})
    report = verify_mod.run_verification(reference, samples=3 * block, seed=2)
    check = flux_check(report)
    assert check.worst == 4.0
    assert check.at_energy == energies[block + 40]


@pytest.mark.parametrize("samples", [1, 2, 2049, 2050, 4097, 5000])
def test_no_call_takes_more_than_one_block(reference, monkeypatch, samples):
    # one block plus the one energy that joins the last, which numpy
    # would round otherwise in an array of its own
    sizes = {"scatter": [], "solve_amplitudes": []}

    def counted(name, func):
        def call(e, cfg):
            sizes[name].append(np.size(e))
            return func(e, cfg)
        return call

    monkeypatch.setattr(verify_mod, "scatter", counted("scatter", scatter))
    monkeypatch.setattr(verify_mod, "solve_amplitudes",
                        counted("solve_amplitudes", solve_amplitudes))
    assert verify_mod.run_verification(reference, samples=samples, seed=5).passed
    assert verify_mod._BLOCK % oracle._CHUNK == 0
    for calls in sizes.values():
        assert max(calls) <= verify_mod._BLOCK + 1
        assert min(calls) > 1 or samples == 1
        assert sum(calls) == samples


@pytest.mark.parametrize("oracle_fails, walk_fails, raised", [
    # the first block with a failing sample decides, whatever fails there
    (0, 1, SingularSystem),
    (1, 0, NumericalOverflow),
    # within a block, the walk is checked first
    (1, 1, NumericalOverflow),
])
def test_the_first_failing_block_decides_the_error(reference, monkeypatch,
                                                   oracle_fails, walk_fails, raised):
    block = verify_mod._BLOCK
    energies = sample_energies(reference, 3 * block, 1)

    def failing_at(index, error, func):
        def call(e, cfg):
            if energies[index] in e:
                raise error(f"sample {index}")
            return func(e, cfg)
        return call

    oracle_at, walk_at = oracle_fails * block + 100, walk_fails * block + 200
    monkeypatch.setattr(verify_mod, "scatter",
                        failing_at(walk_at, NumericalOverflow, scatter))
    monkeypatch.setattr(verify_mod, "solve_amplitudes",
                        failing_at(oracle_at, SingularSystem, solve_amplitudes))
    index = walk_at if raised is NumericalOverflow else oracle_at
    with pytest.raises(raised, match=f"^sample {index}$"):
        verify_mod.run_verification(reference, samples=3 * block, seed=1)
