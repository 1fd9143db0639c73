import cmath
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import paper_tables
import step_reference
import walk_m21
from dirac_double_barrier import (
    ZONE_ORDER,
    BoundaryEnergy,
    Matrix2x2,
    MatrixRange,
    NumericalOverflow,
    PotentialConfig,
    ScatteringResult,
    SearchSettings,
    Zone,
    classify,
    core,
    factor_matrices,
    full_matrix,
    resonance,
    scatter,
    special_energies,
    transfer,
    zone_interval,
)
from dirac_double_barrier.core import nudge
from step_reference import factor_determinants
from frozen_values import GAP_T2_E35, INNER_BARRIER_E6, SAMPLE_AMPLITUDES

# one energy per zone plus one per matrix range boundary side
SAMPLE_ENERGIES = (1.3, 2.0, 3.5, 4.5, 6.0, 7.5, 8.5, 9.5, 11.4)


def _as_array(m: Matrix2x2) -> np.ndarray:
    return np.array([[m.m11, m.m12], [m.m21, m.m22]])


def test_matmul_matches_numpy():
    a = Matrix2x2(1 + 2j, 0.5 - 1j, -2 + 0.25j, 3.0)
    b = Matrix2x2(-1j, 2.5, 1 + 1j, 0.125 - 4j)
    want = _as_array(a) @ _as_array(b)
    got = _as_array(a @ b)
    assert np.allclose(got, want, rtol=0, atol=1e-15)


def test_det_matches_numpy():
    a = Matrix2x2(1 + 2j, 0.5 - 1j, -2 + 0.25j, 3.0)
    assert abs(a.det() - np.linalg.det(_as_array(a))) < 1e-14


def test_boundary_factor_branches(reference):
    bf = paper_tables.boundary_factors(7.5, reference)
    # outside is oscillatory at any admissible energy
    assert abs(abs(bf.sigma0) - 1.0) < 1e-12
    # the barrier is evanescent just under its top: growth factors
    assert bf.sigma_plus.imag == pytest.approx(0.0, abs=1e-12)
    assert bf.sigma_plus.real > 1.0
    assert bf.gamma_plus.real > 1.0
    # the floor is oscillatory at this energy
    assert abs(abs(bf.gamma_minus) - 1.0) < 1e-12


@pytest.mark.parametrize("e", SAMPLE_ENERGIES)
def test_factor_determinants_match_numeric(reference, e):
    numeric = [m.det() for m in factor_matrices(e, reference)]
    analytic = factor_determinants(e, reference)
    for got, want in zip(numeric, analytic):
        assert abs(got - want) < 1e-10
    prod = analytic[0] * analytic[1] * analytic[2] * analytic[3]
    assert abs(prod - 1.0) < 1e-12


def test_inner_barrier_matrix_frozen(reference):
    got = paper_tables.factor_matrices(6.0, reference)[1]
    for z, want in zip(got, INNER_BARRIER_E6):
        assert abs(z - want) <= 1e-12


@pytest.mark.parametrize("e", SAMPLE_ENERGIES)
def test_paper_tables_agree_with_interface_formula(reference, e):
    t, r = paper_tables.amplitudes(e, reference)
    s = scatter(e, reference)
    assert abs(s.t - t) <= 1e-12
    assert abs(s.r - r) <= 1e-12


@pytest.mark.parametrize("e", SAMPLE_ENERGIES)
def test_full_matrix_symmetries(reference, e):
    m = full_matrix(e, reference)
    assert abs(m.det() - 1.0) < 1e-10
    assert abs(m.m11 - m.m22.conjugate()) < 1e-10
    assert abs(m.m12 - m.m21.conjugate()) < 1e-10


@pytest.mark.parametrize("e", SAMPLE_ENERGIES)
def test_scatter_conserves_flux(reference, e):
    s = scatter(e, reference)
    assert abs(s.t2 + s.r2 - 1.0) < 1e-12
    assert 0.0 <= s.t2 <= 1.0 + 1e-12
    assert (s.matrix_range, s.zone) == classify(e, reference)


@pytest.mark.parametrize("e", SAMPLE_ENERGIES)
def test_scatter_agrees_with_the_product(reference, e):
    # two contractions of the same factors: they round differently
    s = scatter(e, reference)
    m = full_matrix(e, reference)
    assert abs(s.t - 1.0 / m.m11) < 1e-14
    assert abs(s.r - m.m21 / m.m11) < 1e-14


def test_sample_amplitudes_are_frozen():
    assert tuple(SAMPLE_AMPLITUDES) == SAMPLE_ENERGIES


@pytest.mark.parametrize("e", SAMPLE_ENERGIES)
def test_scatter_matches_50_digit_amplitudes(reference, e):
    t, r = SAMPLE_AMPLITUDES[e]
    one = scatter(e, reference)
    batch = scatter(np.array([e]), reference)
    for got in (one, ScatteringResult(*(field[0] for field in batch))):
        assert abs(got.t - t) < 1e-14
        assert abs(got.r - r) < 1e-14


def test_gap_transmission_matches_boundary_matching(reference):
    assert scatter(3.5, reference).t2 == pytest.approx(GAP_T2_E35, rel=1e-9)


@pytest.mark.parametrize("e", SAMPLE_ENERGIES)
def test_transmission_from_off_diagonal_entry(reference, e):
    # with det M = 1 and the conjugation symmetries, |T|^2 = 1/(1 + |M21|^2)
    m = full_matrix(e, reference)
    s = scatter(e, reference)
    assert abs(s.t2 - 1.0 / (1.0 + abs(m.m21) ** 2)) < 1e-10


def test_off_diagonal_vanishes_at_lowest_resonance(reference):
    assert abs(full_matrix(1.1913921248, reference).m21) < 1e-6


@pytest.mark.parametrize("boundary", [4.0, 8.0])
def test_amplitude_continuity_across_range_boundaries(reference, boundary):
    eps = 1e-6
    below = scatter(boundary - eps, reference)
    above = scatter(boundary + eps, reference)
    assert below.matrix_range is not above.matrix_range
    assert abs(below.t - above.t) < 1e-4
    assert abs(below.r - above.r) < 1e-4


def test_wide_barrier_overflows_cleanly():
    cfg = PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=900.0, a_minus=2.5)
    with pytest.raises(NumericalOverflow):
        full_matrix(7.5, cfg)


def test_wide_barrier_overflows_cleanly_on_arrays():
    cfg = PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=900.0, a_minus=2.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the barrier is evanescent, so growing, only between 7 and 9
        for evaluate in (full_matrix, factor_matrices):
            with pytest.raises(NumericalOverflow, match="E = 7.5"):
                evaluate(np.array([6.0, 7.5, 8.5]), cfg)


@pytest.mark.parametrize("a_plus", [16.0, 60.0, 400.0])
def test_scatter_stays_bounded_on_thick_barriers(a_plus):
    cfg = PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=a_plus, a_minus=2.5)
    grid = nudge(np.linspace(1.01, cfg.v_plus + 4.0, 2000), cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = scatter(grid, cfg)
        if a_plus > 60.0:
            # the product overflows here, and inf - inf in its finiteness
            # test must not leak a RuntimeWarning
            with pytest.raises(NumericalOverflow):
                full_matrix(grid, cfg)
    assert np.isfinite(s.t).all() and np.isfinite(s.r).all()
    assert np.abs(s.t2 + s.r2 - 1.0).max() < 1e-12
    if a_plus <= 60.0:
        m = full_matrix(grid, cfg)
        assert np.abs(s.t - 1.0 / m.m11).max() < 1e-12
        assert np.abs(s.r - m.m21 / m.m11).max() < 1e-12


@pytest.mark.parametrize("a_plus", [0.5, 3.0, 16.0, 60.0])
def test_m21_squared_is_the_product_element(a_plus):
    cfg = PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=a_plus, a_minus=2.5)
    grid = nudge(np.linspace(1.01, cfg.v_plus + 4.0, 2000), cfg)
    # two contractions of the same factors, each energy to about 1e-12:
    # the walk's |b|^2/|tau|^2, and Im(b/tau), as the resonance scan reads
    # Im M21
    product = full_matrix(grid, cfg).m21
    want = np.abs(product) ** 2
    assert (np.abs(walk_m21.m21_squared(grid, cfg) - want) / (1.0 + want)).max() < 2e-12
    scan = resonance._im_m21(grid, cfg)
    assert (np.abs(scan - product.imag) / (1.0 + np.abs(product))).max() < 2e-12
    # and M21 = b/tau itself, one energy at a time, as the root refinement reads it
    for e in grid[::20].tolist():
        got, want = walk_m21.m21(e, cfg), full_matrix(e, cfg).m21
        assert type(got) is complex
        assert abs(got - want) / (1.0 + abs(want)) < 2e-12


def test_m21_overflows_at_the_first_energy_past_double_range():
    cfg = PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=900.0, a_minus=2.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # the walk stays finite, but tau underflows to 0 where the barrier
        # is evanescent, between 7 and 9, so b/tau has no finite value there
        b, tau = walk_m21.b_tau(np.array([6.0, 7.5, 8.5]), cfg)
        assert np.isfinite(b).all() and tau[0] != 0 and not tau[1:].any()
        assert cmath.isfinite(b[0] / tau[0])
        # the resonance scan and refinement say so at the first such energy:
        # of the 16-point phase grid past 7, 7.0000000188 and 7.04 still walk
        # to a finite M21 and the next energy, 7.1229, is the first that does not
        grid = resonance._phase_grid(cfg, 6.0, 7.5, 16)
        assert grid[9] < 7.0 < grid[10] < grid[11] < grid[12] == 7.122892017285995
        assert all(cmath.isfinite(walk_m21.m21(float(e), cfg)) for e in grid[10:12])
        settings = SearchSettings(grid_points_per_zone=16)
        with pytest.raises(NumericalOverflow, match=r"^M21 overflowed at E = 7.122892017285995$"):
            resonance._scan(cfg, 6.0, 7.5, settings)
        with pytest.raises(NumericalOverflow, match=r"^M21 overflowed at E = 7.5$"):
            resonance._refine_bracket(resonance._Walk(cfg), 7.5, 7.6)
        # the refinement screens nothing: the range edge v_plus reaches the walk
        with pytest.raises(NumericalOverflow, match=r"^M21 overflowed at E = 8.0$"):
            resonance._refine_bracket(resonance._Walk(cfg), 6.0, cfg.v_plus)


def test_the_search_walk_makes_two_exponentials_and_scatter_three(reference, monkeypatch):
    # the walk's two decays; the outside phase e^{-2 k0 a} is scatter's
    # alone, since a and the phase cancel from M21 = b/tau
    calls = []
    for module in (cmath, np):
        def spy(z, _exp=module.exp, _name=module.__name__):
            calls.append(_name)
            return _exp(z)

        monkeypatch.setattr(module, "exp", spy)
    for e, name in ((7.5, "cmath"), (np.array([6.0, 7.5, 8.5]), "numpy")):
        for evaluate, count in ((transfer._checked_walk, 2), (scatter, 3)):
            calls.clear()
            evaluate(e, reference)
            assert calls == [name] * count, (evaluate, e)


def test_scatter_refuses_an_exponent_past_double_range():
    # k0 a overflows at every energy, so no width bound can hold
    cfg = PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=1e308, a_minus=2.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for e, first in ((7.5, "7.5"), (np.array([6.0, 7.5]), "6.0")):
            with pytest.raises(NumericalOverflow, match=f"E = {first}$"):
                scatter(e, cfg)


@pytest.mark.parametrize("m", [1e-200, 1e200])
def test_a_wave_vector_past_double_range_is_named_on_floats_and_arrays(m):
    # the reference potential scaled by m, past the stated range: k
    # underflows to 0 at 1e-200, where rho = s_R / s_L is 0/0, and leaves
    # double range upward at 1e200; the walk and the product say so alike
    cfg = PotentialConfig(v_plus=8.0 * m, v_minus=4.0 * m, a_plus=3.0 / m,
                          a_minus=2.5 / m, m=m)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for evaluate in (scatter, full_matrix, factor_matrices):
            for e in (2.0 * m, np.array([2.0 * m, 6.3 * m])):
                with pytest.raises(NumericalOverflow) as info:
                    evaluate(e, cfg)
                assert str(info.value) == f"wave vector out of double range at E = {2.0 * m!r}"
    # a finite k with an exponent past double range keeps its own message
    cfg = PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=1e308, a_minus=2.5)
    with pytest.raises(NumericalOverflow, match="^wave exponent overflowed at E = 7.5$"):
        scatter(7.5, cfg)


def test_array_path_matches_scalar_path(reference):
    energies = np.array(SAMPLE_ENERGIES)
    batch = scatter(energies, reference)
    mat = full_matrix(energies, reference)
    steps = factor_matrices(energies, reference)
    dets = factor_determinants(energies, reference)
    for i, e in enumerate(SAMPLE_ENERGIES):
        one = scatter(e, reference)
        assert abs(batch.t[i] - one.t) < 1e-13
        assert abs(batch.r[i] - one.r) < 1e-13
        assert (batch.matrix_range[i], batch.zone[i]) == classify(e, reference)
        for got, want in zip(mat, full_matrix(e, reference)):
            assert abs(got[i] - want) <= 1e-12 * max(1.0, abs(want))
        for p_arr, p_one in zip(steps, factor_matrices(e, reference)):
            for got, want in zip(p_arr, p_one):
                assert abs(got[i] - want) <= 1e-12 * max(1.0, abs(want))
        for got, want in zip(dets, factor_determinants(e, reference)):
            assert abs(got[i] - want) < 1e-14


def test_scalar_path_returns_python_numbers(reference):
    s = scatter(6.0, reference)
    assert type(s.t) is complex and type(s.r) is complex
    assert type(s.t2) is float and type(s.r2) is float
    assert all(type(z) is complex for z in full_matrix(6.0, reference))


def test_scattering_result_is_an_immutable_named_tuple(reference):
    assert ScatteringResult._fields == ("e", "t", "r", "t2", "r2", "matrix_range", "zone")
    s = scatter(7.5, reference)
    assert isinstance(s, tuple)
    with pytest.raises(AttributeError):
        s.t2 = 0.5
    moved = s._replace(t2=0.5)
    assert type(moved) is ScatteringResult and moved is not s
    assert moved.t2 == 0.5 and s.t2 != 0.5
    assert moved[:3] + moved[4:] == s[:3] + s[4:]


def test_scatter_fields_follow_the_energy_type(reference):
    one = scatter(7.5, reference)
    assert type(one.e) is float
    assert type(one.t) is complex and type(one.r) is complex
    assert type(one.t2) is float and type(one.r2) is float
    assert isinstance(one.matrix_range, MatrixRange) and isinstance(one.zone, Zone)
    batch = scatter(np.array(SAMPLE_ENERGIES), reference)
    for field in batch:
        assert isinstance(field, np.ndarray) and field.shape == (len(SAMPLE_ENERGIES),)


def test_array_raises_at_first_inadmissible_energy(reference):
    # every evaluator screens an array as it screens each of its energies:
    # the first bad one in array order, with the message it gets alone
    cases = [
        ([2.0, 7.0, 4.0], "lies within 1e-09 of the boundary energy 7"),
        ([2.0, 0.5, 7.0], "is at or below the scattering threshold m = 1"),
        ([2.0, 4.0 + 5e-10, 0.5], "lies within 1e-09 of the boundary energy 4"),
    ]
    for evaluate in (scatter, full_matrix, factor_matrices):
        for energies, kind in cases:
            first = energies[1]
            with pytest.raises(BoundaryEnergy) as info:
                evaluate(np.array(energies), reference)
            assert info.value.energy == first
            with pytest.raises(BoundaryEnergy) as alone:
                evaluate(first, reference)
            assert str(info.value) == str(alone.value)
            assert kind in str(info.value)


def _bits(z) -> list:
    """Every bit of a complex number or array, signed zeros included."""
    if isinstance(z, np.ndarray):
        return z.view(np.uint64).tolist()
    return [z.real.hex(), z.imag.hex()]


def _assert_same_bits(got: tuple, want: tuple) -> None:
    for g, w in zip(got, want, strict=True):
        for a, b in zip(g, w, strict=True):
            assert _bits(a) == _bits(b)


def _check_against_four_call_steps(e, cfg: PotentialConfig) -> None:
    _assert_same_bits(factor_matrices(e, cfg), step_reference.factor_matrices(e, cfg))
    _assert_same_bits((full_matrix(e, cfg),), (step_reference.full_matrix(e, cfg),))


@pytest.mark.parametrize("zone", ZONE_ORDER, ids=lambda z: z.value)
def test_shared_exponentials_match_four_call_steps_in_every_zone(reference, zone):
    lo, hi = zone_interval(zone, reference)
    hi = min(hi, reference.v_plus + 4.0 * reference.m)
    grid = nudge(np.linspace(lo, hi, 401)[1:-1], reference)
    _check_against_four_call_steps(grid, reference)
    for e in grid[::40].tolist():
        _check_against_four_call_steps(e, reference)


def test_shared_exponentials_match_four_call_steps_on_a_long_array(reference):
    # at 20,000 energies (320 kB per complex array) numpy multiplies into
    # large temporaries in place, a path short arrays never take
    grid = nudge(np.linspace(1.01, reference.v_plus + 4.0, 20_000), reference)
    _check_against_four_call_steps(grid, reference)


@pytest.mark.parametrize("a_plus", [3.0, 400.0])
def test_the_walk_lets_no_floating_point_warning_escape_next_to_special_energies(a_plus):
    # the walk's error state covers the walk alone: the media before it and
    # the amplitudes after it stay finite at admissible energies, even as
    # close to U +/- m and the range edges as any grid or march comes
    cfg = PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=a_plus, a_minus=2.5)
    margin = core.EVAL_MARGIN * cfg.m
    energies = np.array([e for s in special_energies(cfg) for e in (s - margin, s + margin)
                         if e > cfg.m])
    assert (nudge(energies, cfg) == energies).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for e in (energies, *energies.tolist()):
            scatter(e, cfg)
            transfer._checked_walk(e, cfg)
            transfer._finish(transfer._prepare(e, cfg), cfg)


def test_scatter_bits_do_not_depend_on_array_length(reference):
    # above 256 KiB numpy may multiply temporaries in place with the
    # operands swapped, which its SIMD complex product rounds differently
    grid = nudge(np.linspace(1.01, reference.v_plus + 4.0, 20_000), reference)
    whole = scatter(grid, reference)
    parts = [scatter(grid[i:i + 1000], reference) for i in range(0, grid.size, 1000)]
    for field in ("t", "r", "t2", "r2"):
        joined = np.concatenate([getattr(part, field) for part in parts])
        assert _bits(getattr(whole, field)) == _bits(joined)


def test_the_width_free_half_serves_any_widths(reference):
    # what a width sweep does: _prepare once, _finish per frame; at 20,000
    # energies, where numpy reuses large temporaries in place, the shared
    # ratios must keep their operand order and come out of a frame unchanged
    grid = nudge(np.linspace(1.01, reference.v_plus + 4.0, 20_000), reference)
    prepared = transfer._prepare(grid, reference)
    for a_plus, a_minus in ((3.0, 2.5), (16.0, 1.0), (0.5, 4.0), (3.0, 2.5)):
        cfg = PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=a_plus, a_minus=a_minus)
        got, want = transfer._finish(prepared, cfg), scatter(grid, cfg)
        for field in ("t", "r", "t2", "r2"):
            assert _bits(getattr(got, field)) == _bits(getattr(want, field))
        assert got.e is grid
        assert (got.matrix_range == want.matrix_range).all()
        assert (got.zone == want.zone).all()


@st.composite
def _thick_cases(draw, a_plus_max=5.0):
    v_minus = draw(st.floats(2.3, 6.0))
    cfg = PotentialConfig(v_plus=v_minus + draw(st.floats(2.3, 8.0)), v_minus=v_minus,
                          a_plus=draw(st.floats(0.2, a_plus_max)), a_minus=draw(st.floats(0.2, 3.2)))
    e = draw(st.floats(1.01, cfg.v_plus + 4.0))
    assume(min(abs(e - s) for s in special_energies(cfg)) > 1e-5)
    return cfg, e


@settings(max_examples=150, deadline=None)
@given(_thick_cases())
def test_shared_exponentials_match_four_call_steps_property(case):
    cfg, e = case
    _check_against_four_call_steps(e, cfg)
    _check_against_four_call_steps(nudge(np.array([e, 0.5 * (e + 1.01)]), cfg), cfg)


@settings(max_examples=150, deadline=None)
@given(_thick_cases(a_plus_max=60.0))
def test_scatter_holds_flux_at_any_width_property(case):
    cfg, e = case
    # within 1e-4 m of a special energy an interface ratio s_R/s_L grows
    # like the distance^-1/2, and the roundoff with it (1.4e-13 at 1e-5
    # m; the product's flux error there is twice that)
    near = min(abs(e - s) for s in special_energies(cfg)) < 1e-4
    tol = 1e-12 if near else 1e-13
    one = scatter(e, cfg)
    batch = scatter(nudge(np.array([e, 0.5 * (e + 1.01)]), cfg), cfg)
    assert abs(one.t2 + one.r2 - 1.0) < tol
    assert np.abs(batch.t2 + batch.r2 - 1.0).max() < tol
    assert abs(batch.t[0] - one.t) < tol
    assert abs(batch.r[0] - one.r) < tol
