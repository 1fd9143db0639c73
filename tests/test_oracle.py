import re

import numpy as np
import pytest

from dirac_double_barrier import (
    SingularEnergy,
    SingularSystem,
    find_resonances,
    oracle,
    sample_energies,
    scatter,
    solve_amplitudes,
    wavefunction_profile,
    Zone,
)
from frozen_values import FLOOR_ENHANCEMENT

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


@pytest.mark.parametrize("e", SAMPLE_ENERGIES)
def test_agreement_with_transfer_route(reference, e):
    amps = solve_amplitudes(e, reference)
    s = scatter(e, reference)
    assert abs(amps.t - s.t) < 1e-12
    assert abs(amps.r - s.r) < 1e-12


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


# T and R of the one-energy solve as hex floats, recorded before the
# solver took arrays; the float path must still reproduce them exactly
# (with the same numpy and LAPACK build)
SCALAR_PINS = {
    1.3: ('-0x1.558a9351d39d5p-7', '0x1.38b58ee90e2f0p-1',
          '0x1.9550c23d26156p-1', '0x1.baaf9a719ebf3p-7'),
    3.5: ('0x1.6b2bf01633b4cp-7', '-0x1.4561d386d9dabp-7',
          '-0x1.559dfbd466050p-1', '-0x1.7d4ac9588f422p-1'),
    6.0: ('-0x1.0b4f0bccc709cp-2', '0x1.540c139db5f73p-2',
          '0x1.6cd96e44bdda3p-1', '0x1.1ece3af04e3e5p-1'),
    8.5: ('0x1.3b7f3395df2b0p-9', '-0x1.3cbc72960d3b2p-7',
          '0x1.f0cd6cfd368e8p-1', '0x1.eedbd2ca42b1bp-3'),
    11.4: ('0x1.dc2c43afbde03p-1', '0x1.72b08b00661fbp-2',
           '0x1.783d4816c9f9fp-6', '-0x1.e34d49aed9739p-5'),
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
