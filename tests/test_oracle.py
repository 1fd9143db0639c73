import re
import warnings

import numpy as np
import pytest

from dirac_double_barrier import (
    PotentialConfig,
    SingularEnergy,
    SingularSystem,
    ZONE_ORDER,
    find_resonances,
    oracle,
    sample_energies,
    scatter,
    solve_amplitudes,
    wavefunction_profile,
    Zone,
)
from dirac_double_barrier.emit import zone_report
from frozen_values import FLOOR_ENHANCEMENT, SAMPLE_AMPLITUDES

SAMPLE_ENERGIES = (1.3, 2.5, 3.5, 4.5, 6.0, 7.5, 8.5, 9.5, 11.4)


@pytest.mark.parametrize("e", SAMPLE_ENERGIES)
def test_matching_residual_is_tiny(reference, e):
    amps = solve_amplitudes(e, reference)
    assert amps.residual < 1e-10


@pytest.mark.parametrize("e", SAMPLE_ENERGIES)
def test_fixed_amplitudes(reference, e):
    amps = solve_amplitudes(e, reference)
    assert amps.a[0] == 1.0
    assert amps.b[4] == 0.0


@pytest.mark.parametrize("e", SAMPLE_ENERGIES)
def test_flux_conservation(reference, e):
    amps = solve_amplitudes(e, reference)
    assert abs(abs(amps.t) ** 2 + abs(amps.r) ** 2 - 1.0) < 1e-10


# the last two sit 1.1e-6 and 1.25e-6 above v_minus - m, where the slope
# kappa / (m + E - U) loses digits unless E - U is formed first
@pytest.mark.parametrize("e", (*SAMPLE_ENERGIES, 3.0000011, 3.00000125))
def test_agreement_with_transfer_route(reference, e):
    amps = solve_amplitudes(e, reference)
    s = scatter(e, reference)
    assert abs(amps.t - s.t) < 1e-12
    assert abs(amps.r - s.r) < 1e-12


def test_agreement_with_50_digit_amplitudes(reference):
    energies = sorted(SAMPLE_AMPLITUDES)
    batch = solve_amplitudes(np.array(energies), reference)
    for i, e in enumerate(energies):
        t, r = SAMPLE_AMPLITUDES[e]
        one = solve_amplitudes(e, reference)
        for got_t, got_r in ((one.t, one.r), (batch.t[i], batch.r[i])):
            assert abs(got_t - t) < 1e-14
            assert abs(got_r - r) < 1e-14


@pytest.mark.parametrize("a_plus", [16.0, 60.0, 400.0, 900.0, 2000.0])
def test_wide_barriers_stay_finite_and_agree_with_transfer(a_plus):
    # every weight of a finite region is referenced at its own edge, so no
    # exponential exceeds 1 in modulus however wide the barriers are
    cfg = PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=a_plus, a_minus=2.5)
    e = np.array(sample_energies(cfg, 200, seed=7))
    xs = np.linspace(-cfg.a - 5.0, cfg.a + 5.0, 401)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = solve_amplitudes(e, cfg)
        ones = [solve_amplitudes(x, cfg) for x in SAMPLE_ENERGIES]
        profile = wavefunction_profile(8.5, cfg, xs)
    s = scatter(e, cfg)
    assert np.isfinite(batch.residual).all()
    assert np.abs(batch.t - s.t).max() < 1e-13
    assert np.abs(batch.r - s.r).max() < 1e-13
    for x, one in zip(SAMPLE_ENERGIES, ones):
        s = scatter(x, cfg)
        assert abs(one.t - s.t) < 1e-13
        assert abs(one.r - s.r) < 1e-13
    assert np.isfinite([(p.psi_plus, p.psi_minus) for p in profile]).all()


def test_an_overflowed_stack_is_refused_without_a_warning():
    # the reference potential scaled by m = 1e200, past the stated range:
    # the squares in kappa overflow, and the array path must raise as the
    # float path does, under the suite's warnings-as-errors filter
    m = 1e200
    cfg = PotentialConfig(v_plus=8.0 * m, v_minus=4.0 * m, a_plus=3.0 / m,
                          a_minus=2.5 / m, m=m)
    for e in (6.3e200, np.array([6.3e200, 6.4e200])):
        with pytest.raises(SingularSystem, match="E = 6.3e[+]200"):
            solve_amplitudes(e, cfg)


@pytest.mark.parametrize("v_plus, e_max", [(8.0, 11.0), (10.0, 13.0)])
def test_agreement_at_found_resonances(v_plus, e_max):
    # random samples almost never land on a sharp peak, so check every
    # resonance the two spectrum reports find
    cfg = PotentialConfig(v_plus=v_plus, v_minus=4.0, a_plus=3.0, a_minus=2.5)
    report = zone_report(cfg, ZONE_ORDER, e_max)
    energies = [r["energy"] for zone in report["zones"] for r in zone["resonances"]]
    assert len(energies) > 20
    for e in energies:
        amps = solve_amplitudes(e, cfg)
        s = scatter(e, cfg)
        assert abs(amps.t - s.t) < 1e-12
        assert abs(amps.r - s.r) < 1e-12
        assert abs(amps.t) ** 2 == pytest.approx(1.0, abs=1e-8)


def test_full_transmission_at_tabulated_resonance(reference):
    amps = solve_amplitudes(5.1824247690, reference)
    assert abs(amps.t) ** 2 == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("e", (2.5, 6.0, 9.5))
def test_profile_is_continuous_at_interfaces(reference, e):
    delta = 1e-9
    for x0 in (-reference.a, -reference.a_minus, reference.a_minus, reference.a):
        left, right = wavefunction_profile(e, reference, [x0 - delta, x0 + delta])
        assert abs(left.psi_plus - right.psi_plus) < 1e-6
        assert abs(left.psi_minus - right.psi_minus) < 1e-6


def test_profile_requires_solvable_energy(reference):
    samples = wavefunction_profile(2.0, reference, np.linspace(-8.0, 8.0, 41))
    assert len(samples) == 41
    assert all(s.density >= 0.0 for s in samples)


def test_floor_density_enhancement_at_first_resonance(reference):
    e_star = find_resonances(reference, [Zone.LOWER_KLEIN])[0].energy
    inner = np.linspace(-reference.a_minus, reference.a_minus, 4001)
    outer = np.concatenate([
        np.linspace(-reference.a - 10.0, -reference.a, 4001),
        np.linspace(reference.a, reference.a + 10.0, 4001),
    ])
    floor_max = max(s.density for s in wavefunction_profile(e_star, reference, inner))
    outside_max = max(s.density for s in wavefunction_profile(e_star, reference, outer))
    assert floor_max / outside_max == pytest.approx(FLOOR_ENHANCEMENT, rel=1e-9)


# T and R of the one-energy solve as hex floats, printed by
# scripts/make_golden.py once the oracle matched SAMPLE_AMPLITUDES; the
# float path must reproduce them exactly (with the same numpy and LAPACK
# build)
SCALAR_PINS = {
    1.3: ('-0x1.558a9351d336bp-7', '0x1.38b58ee90e2fep-1',
          '0x1.9550c23d2614dp-1', '0x1.baaf9a719e3c2p-7'),
    3.5: ('0x1.6b2bf01633b4cp-7', '-0x1.4561d386d9da9p-7',
          '-0x1.559dfbd466050p-1', '-0x1.7d4ac9588f424p-1'),
    6.0: ('-0x1.0b4f0bccc709dp-2', '0x1.540c139db5f72p-2',
          '0x1.6cd96e44bdda3p-1', '0x1.1ece3af04e3e5p-1'),
    8.5: ('0x1.3b7f3395df2aap-9', '-0x1.3cbc72960d3b0p-7',
          '0x1.f0cd6cfd368edp-1', '0x1.eedbd2ca42b20p-3'),
    11.4: ('0x1.dc2c43afbde13p-1', '0x1.72b08b00661bcp-2',
           '0x1.783d4816c9efcp-6', '-0x1.e34d49aed9669p-5'),
}


@pytest.mark.parametrize("e", sorted(SCALAR_PINS))
def test_scalar_solve_is_pinned_bit_for_bit(reference, e):
    amps = solve_amplitudes(e, reference)
    got = (amps.t.real.hex(), amps.t.imag.hex(), amps.r.real.hex(), amps.r.imag.hex())
    assert got == SCALAR_PINS[e]
    assert type(amps.residual) is float
    assert type(amps.a[0]) is complex and type(amps.b[4]) is complex


@pytest.mark.parametrize("n", [1, oracle._CHUNK, oracle._CHUNK + 1],
                         ids=["one", "chunk", "chunk+1"])
def test_array_solve_across_chunk_edges(reference, n):
    e = np.array(sample_energies(reference, n, seed=n))
    amps = solve_amplitudes(e, reference)
    for column in (*amps.a, *amps.b, amps.residual):
        assert column.shape == (n,)
    assert (amps.a[0] == 1.0).all() and (amps.b[4] == 0.0).all()
    for i in {0, n // 2, n - 1}:
        one = solve_amplitudes(e[i], reference)
        assert abs(amps.t[i] - one.t) < 1e-12
        assert abs(amps.r[i] - one.r) < 1e-12
        # each energy's system is solved on its own, whichever chunk holds it
        alone = solve_amplitudes(e[i:i + 1], reference)
        assert amps.t[i] == alone.t[0] and amps.r[i] == alone.r[0]
    assert amps.residual.max() < oracle.RESIDUAL_LIMIT


def test_array_singular_energy_names_the_first(reference):
    # within SINGULAR_TOL of 7 = v_plus - m, singular in the barriers, and
    # of 3 = v_minus - m on the floor; the floor one comes first in the
    # array, past the first chunk
    e = np.full(oracle._CHUNK + 3, 2.0)
    e[-2:] = (3.0 + 5e-10, 7.0 - 5e-10)
    with pytest.raises(SingularEnergy, match=re.escape(f"E = {3.0 + 5e-10!r} ")) as info:
        solve_amplitudes(e, reference)
    assert info.value.energy == 3.0 + 5e-10


def test_array_residual_miss_names_the_first(reference, monkeypatch):
    e = np.array(sample_energies(reference, 40, seed=4))
    residual = solve_amplitudes(e, reference).residual
    limit = np.median(residual)
    first = int(np.flatnonzero(residual >= limit)[0])
    monkeypatch.setattr(oracle, "RESIDUAL_LIMIT", limit)
    with pytest.raises(SingularSystem, match=re.escape(f"E = {float(e[first])!r} left")):
        solve_amplitudes(e, reference)


def test_array_singular_system_names_the_first(reference, monkeypatch):
    e = np.array(sample_energies(reference, 30, seed=5))
    broken = {float(e[7]), float(e[20])}
    system = oracle._system

    def singular_at_broken(x, cfg, xp):
        mat, rhs = system(x, cfg, xp)
        if isinstance(x, np.ndarray):
            mat[np.isin(x, list(broken))] = 0.0
        elif x in broken:
            mat[:] = 0.0
        return mat, rhs

    monkeypatch.setattr(oracle, "_system", singular_at_broken)
    with pytest.raises(SingularSystem, match=re.escape(f"E = {float(e[7])!r}: ")):
        solve_amplitudes(e, reference)


# T and R of the five SCALAR_PINS energies solved together in one array
# call, as hex floats from the same script; the batched LAPACK solve rounds
# differently from the one-energy solve, so these differ from SCALAR_PINS
# in the last bits at 1.3, 3.5 and 11.4 (with the same numpy and LAPACK
# build)
ARRAY_PINS = {
    1.3: ('-0x1.558a9351d339cp-7', '0x1.38b58ee90e300p-1',
          '0x1.9550c23d2614dp-1', '0x1.baaf9a719e392p-7'),
    3.5: ('0x1.6b2bf01633b4ap-7', '-0x1.4561d386d9da8p-7',
          '-0x1.559dfbd46604fp-1', '-0x1.7d4ac9588f423p-1'),
    6.0: ('-0x1.0b4f0bccc709dp-2', '0x1.540c139db5f72p-2',
          '0x1.6cd96e44bdda3p-1', '0x1.1ece3af04e3e5p-1'),
    8.5: ('0x1.3b7f3395df2aap-9', '-0x1.3cbc72960d3b0p-7',
          '0x1.f0cd6cfd368edp-1', '0x1.eedbd2ca42b20p-3'),
    11.4: ('0x1.dc2c43afbde10p-1', '0x1.72b08b00661bdp-2',
           '0x1.783d4816c9ee3p-6', '-0x1.e34d49aed96a1p-5'),
}


def test_array_solve_is_pinned_bit_for_bit(reference):
    energies = sorted(ARRAY_PINS)
    amps = solve_amplitudes(np.array(energies), reference)
    for i, e in enumerate(energies):
        t, r = complex(amps.t[i]), complex(amps.r[i])
        assert (t.real.hex(), t.imag.hex(), r.real.hex(), r.imag.hex()) == ARRAY_PINS[e]


# psi_plus and psi_minus at E = 8.5 (tunnelling through the barriers, oscillating
# on the floor) as hex floats, from the same script: the five interface
# and centre points, which belong to the inner region, and one point inside each
# of the five regions, left to right
PROFILE_PINS = {
    -7.0: ('-0x1.c26a86c055235p+0', '-0x1.b9f41415a4242p-3',
           '0x1.a2298ceacd336p-1', '0x1.9a19b22bad710p-4'),
    -5.5: ('-0x1.aa0a3e29ca964p+0', '-0x1.a20bd92e52ae4p-3',
           '0x1.ec445ca7a5879p-1', '0x1.e2d04f5395e69p-4'),
    -4.0: ('-0x1.cf03762970198p-2', '-0x1.c799eda3519c4p-5',
           '0x1.0da7c8bc7832ep-2', '0x1.07bdc38e6f8cdp-5'),
    -2.5: ('-0x1.ddca9be0be998p-4', '-0x1.e8eab3f171da8p-7',
           '0x1.361537176c328p-4', '0x1.2489602d51574p-7'),
    -1.0: ('-0x1.5695c6cf71386p-4', '-0x1.67adc629f4cc8p-7',
           '0x1.985596d9739a6p-4', '0x1.8a2aef532fcacp-7'),
    0.0: ('-0x1.77bba678a24ccp-4', '-0x1.61725923cf674p-7',
          '-0x1.8556b4da5c497p-4', '-0x1.8dbd341f6ae04p-7'),
    2.5: ('0x1.f1fae18ffe3ffp-4', '0x1.fbe86c3738e44p-7',
          '-0x1.2129cb5ea5dc1p-4', '-0x1.0f2a67ff320d4p-7'),
    4.0: ('0x1.05f835d4e3438p-5', '0x1.96d6f3ea24396p-8',
          '-0x1.46c12a914185fp-6', '-0x1.242d853d30434p-10'),
    5.5: ('0x1.1e96d0e46d182p-8', '0x1.25461e95b3993p-7',
          '-0x1.0494a8e369ae2p-7', '0x1.fd4840dafa025p-9'),
    7.0: ('0x1.cb3617a752d73p-9', '0x1.318dd0b2b4833p-7',
          '-0x1.0f7de81d6a280p-7', '0x1.98051b2cec1c2p-9'),
}


def test_profile_is_pinned_bit_for_bit(reference):
    xs = sorted(PROFILE_PINS)
    assert {-reference.a, -reference.a_minus, 0.0, reference.a_minus,
            reference.a} <= set(xs)
    for s in wavefunction_profile(8.5, reference, xs):
        got = (s.psi_plus.real.hex(), s.psi_plus.imag.hex(),
               s.psi_minus.real.hex(), s.psi_minus.imag.hex())
        assert got == PROFILE_PINS[s.x]
