import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import paper_tables
from dirac_double_barrier import (
    MatrixRange,
    ZONE_ORDER,
    PotentialConfig,
    Region,
    classify,
    full_matrix,
    kinematics,
    oracle,
    run_verification,
    sample_energies,
    scatter,
    solve_amplitudes,
    zone_interval,
)
from paper_tables import factor_determinants

# widths stay modest so evanescent growth factors keep the conditioning
# of products and linear solves within a few orders of magnitude


@st.composite
def potentials(draw):
    v_minus = draw(st.floats(2.3, 6.0))
    v_plus = v_minus + draw(st.floats(2.3, 8.0))
    a_plus = draw(st.floats(0.2, 3.2))
    a_minus = draw(st.floats(0.2, 3.2))
    return PotentialConfig(v_plus=v_plus, v_minus=v_minus,
                           a_plus=a_plus, a_minus=a_minus)


@st.composite
def scattering_cases(draw):
    cfg = draw(potentials())
    e = draw(st.floats(1.01, 18.0))
    assume(e < cfg.v_plus + 4.0)
    guards = (cfg.m, cfg.v_minus - cfg.m, cfg.v_minus, cfg.v_minus + cfg.m,
              cfg.v_plus - cfg.m, cfg.v_plus, cfg.v_plus + cfg.m)
    assume(min(abs(e - g) for g in guards) > 1e-5)
    return cfg, e


@settings(max_examples=120, deadline=None)
@given(scattering_cases())
def test_flux_is_conserved(case):
    cfg, e = case
    s = scatter(e, cfg)
    assert abs(s.t2 + s.r2 - 1.0) < 1e-9
    assert -1e-9 <= s.t2 <= 1.0 + 1e-9


@settings(max_examples=120, deadline=None)
@given(scattering_cases())
def test_matrix_symmetries(case):
    cfg, e = case
    m = full_matrix(e, cfg)
    assert abs(m.det() - 1.0) < 1e-9
    assert abs(m.m11 - m.m22.conjugate()) < 1e-9
    assert abs(m.m12 - m.m21.conjugate()) < 1e-9


@settings(max_examples=120, deadline=None)
@given(scattering_cases())
def test_m21_is_imaginary_on_the_real_axis(case):
    cfg, e = case
    m = full_matrix(e, cfg)
    # Re M21 is roundoff on the scale of the entries, at a root as well
    assert abs(m.m21.real) <= 1e-12 * abs(m.m11)
    if abs(m.m21) > 1e-3 * abs(m.m11):
        assert abs(m.m21.real) <= 1e-9 * abs(m.m21)


@settings(max_examples=80, deadline=None)
@given(scattering_cases())
def test_transfer_agrees_with_boundary_matching(case):
    cfg, e = case
    assert abs(scatter(e, cfg).t - solve_amplitudes(e, cfg).t) < 1e-9


@settings(max_examples=80, deadline=None)
@given(scattering_cases(), st.floats(0.2, 400.0))
def test_oracle_agrees_with_transfer_at_wide_barriers(case, a_plus):
    # the worst of 240,000 such draws was 2.3e-12; at the two worst, a
    # 4000-digit reference put each route up to 2.2e-12 off, so the bound
    # leaves a factor of four over the conditioning of barriers this wide
    cfg, e = case
    cfg = replace(cfg, a_plus=a_plus)
    amps, s = solve_amplitudes(e, cfg), scatter(e, cfg)
    assert abs(amps.t - s.t) < 1e-11
    assert abs(amps.r - s.r) < 1e-11


@settings(max_examples=80, deadline=None)
@given(potentials(), st.floats(0.2, 5.0),
       st.lists(st.floats(0.01, 0.99), min_size=5, max_size=5))
def test_array_oracle_agrees_with_scalar_oracle(cfg, a_plus, fractions):
    # one energy in each of the five zones, the open one up to 4 m above
    # its edge, with barriers up to 5 wide where the system is stiffest
    cfg = replace(cfg, a_plus=a_plus)
    edges = [zone_interval(zone, cfg) for zone in ZONE_ORDER]
    edges[-1] = (edges[-1][0], edges[-1][0] + 4.0 * cfg.m)
    e = np.array([lo + u * (hi - lo) for (lo, hi), u in zip(edges, fractions)])
    batch = solve_amplitudes(e, cfg)
    for i, x in enumerate(e.tolist()):
        one = solve_amplitudes(x, cfg)
        assert abs(batch.t[i] - one.t) <= 1e-12
        assert abs(batch.r[i] - one.r) <= 1e-12


@pytest.mark.parametrize("matrix_range", list(MatrixRange), ids=lambda r: r.value)
@settings(max_examples=80, deadline=None)
@given(potentials(), st.floats(0.0, 1.0))
def test_paper_tables_agree_with_interface_formula(matrix_range, cfg, u):
    lo, hi = {
        MatrixRange.I: (cfg.m, cfg.v_minus),
        MatrixRange.II: (cfg.v_minus, cfg.v_plus),
        MatrixRange.III: (cfg.v_plus, cfg.v_plus + 4.0),
    }[matrix_range]
    e = lo + u * (hi - lo)
    guards = (cfg.m, cfg.v_minus - cfg.m, cfg.v_minus, cfg.v_minus + cfg.m,
              cfg.v_plus - cfg.m, cfg.v_plus, cfg.v_plus + cfg.m)
    assume(min(abs(e - g) for g in guards) > 1e-5)
    t, r = paper_tables.amplitudes(e, cfg)
    s = scatter(e, cfg)
    assert s.matrix_range is matrix_range
    assert abs(s.t - t) <= 1e-12
    assert abs(s.r - r) <= 1e-12


@settings(max_examples=120, deadline=None)
@given(scattering_cases())
def test_factor_determinants_telescope(case):
    cfg, e = case
    d1, d2, d3, d4 = factor_determinants(e, cfg)
    assert abs(d1 * d2 * d3 * d4 - 1.0) < 1e-10


@settings(max_examples=120, deadline=None)
@given(scattering_cases(), st.sampled_from(list(Region)))
def test_weight_product_is_a_sign(case, region):
    cfg, e = case
    u = cfg.potential(region)
    assume(abs(abs(e - u) - cfg.m) > 1e-5)
    kin = kinematics(e, region, cfg)
    sign = 1.0 if abs(e - u) < cfg.m else -1.0
    assert abs(kin.alpha * kin.beta - sign) < 1e-10


@settings(max_examples=120, deadline=None)
@given(scattering_cases())
def test_classification_brackets_the_energy(case):
    cfg, e = case
    rng, zone = classify(e, cfg)
    lo, hi = zone_interval(zone, cfg)
    assert lo < e < hi
    if e < cfg.v_minus:
        assert rng.value == "I"
    elif e < cfg.v_plus:
        assert rng.value == "II"
    else:
        assert rng.value == "III"


@settings(max_examples=60, deadline=None)
@given(scattering_cases(), st.floats(0.25, 4.0))
def test_mass_rescaling_leaves_probabilities_alone(case, scale):
    cfg, e = case
    scaled = PotentialConfig(
        v_plus=cfg.v_plus * scale,
        v_minus=cfg.v_minus * scale,
        a_plus=cfg.a_plus / scale,
        a_minus=cfg.a_minus / scale,
        m=cfg.m * scale,
    )
    base = scatter(e, cfg)
    other = scatter(e * scale, scaled)
    assert other.t2 == pytest.approx(base.t2, rel=1e-9, abs=1e-12)
    assert other.zone is base.zone


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@settings(max_examples=60, deadline=None)
@given(potentials(), log_uniform(0.2, 2000.0), log_uniform(0.2, 200.0),
       st.integers(0, 2**32 - 1))
def test_verify_holds_on_thick_barriers_and_wide_floors(cfg, a_plus, a_minus, seed):
    # the stated width range, far past the modest widths drawn above
    cfg = replace(cfg, a_plus=a_plus, a_minus=a_minus)
    report = run_verification(cfg, samples=200, seed=seed)
    assert report.passed, report.render()


@settings(max_examples=40, deadline=None)
@given(potentials(), log_uniform(0.2, 2000.0), log_uniform(0.2, 200.0),
       st.integers(0, 2**32 - 1))
def test_array_oracle_agrees_with_the_scalar_solve_and_with_itself(cfg, a_plus, a_minus,
                                                                     seed):
    # verify's draws: the banded elimination against the one-energy LAPACK
    # solve, and each energy solved alone against the same energy in the array
    cfg = replace(cfg, a_plus=a_plus, a_minus=a_minus)
    e = np.array(sample_energies(cfg, 50, seed=seed))
    amps = solve_amplitudes(e, cfg)
    assert amps.residual.max() < oracle.RESIDUAL_LIMIT
    whole = np.array([*amps.a, *amps.b, amps.residual])
    for i, x in enumerate(e.tolist()):
        one = solve_amplitudes(x, cfg)
        assert abs(amps.t[i] - one.t) < 1e-12
        assert abs(amps.r[i] - one.r) < 1e-12
        alone = solve_amplitudes(e[i:i + 1], cfg)
        assert np.array([*alone.a, *alone.b, alone.residual]).tobytes() == \
            whole[:, i:i + 1].tobytes()
