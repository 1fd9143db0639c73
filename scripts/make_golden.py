#!/usr/bin/env python3
"""Regenerate the frozen constants used by the regression tests.

Each block prints a Python literal to paste into tests/.  High-precision
references use mpmath at 50 digits so double-precision transcription
slips show up; everything else is pinned through an independent route
(boundary matching, dense grids, wavefunction profiles) before freezing.
"""

import sys
from pathlib import Path

import numpy as np
import mpmath as mp

from dirac_double_barrier import (
    PotentialConfig,
    Zone,
    attach_widths,
    find_above_barrier,
    find_resonances,
    scatter,
    solve_amplitudes,
    wavefunction_profile,
)

# the paper's literal tables are the reference kept with the tests
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
from paper_tables import factor_matrices  # noqa: E402
from test_oracle import PROFILE_PINS, SCALAR_PINS  # noqa: E402
from test_transfer import SAMPLE_ENERGIES  # noqa: E402

mp.mp.dps = 50

CANONICAL = PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=3.0, a_minus=2.5)


def mp_inner_barrier_matrix(e, cfg):
    """Second boundary matrix for v_minus < E < v_plus at 50 digits.

    Recomputed from scratch on mpmath complex numbers; shares no floats
    with the production code.
    """
    m = mp.mpf(cfg.m)
    dm = mp.mpf(e) - mp.mpf(cfg.v_minus)
    dp = mp.mpf(e) - mp.mpf(cfg.v_plus)
    km = mp.sqrt(mp.mpc(m - dm) * mp.mpc(m + dm))
    kp = mp.sqrt(mp.mpc(m - dp) * mp.mpc(m + dp))
    am = mp.sqrt(mp.mpc(m - dm) / mp.mpc(m + dm))
    bp = mp.sqrt(mp.mpc(m + dp) / mp.mpc(m - dp))
    gp = mp.exp(mp.mpf(cfg.a_minus) * kp)
    gm = mp.exp(mp.mpf(cfg.a_minus) * km)
    half = mp.mpf("0.5")
    return (
        half / (gp * gm) * (am - 1 / bp),
        -half * (gm / gp) * (am + 1 / bp),
        half * (gp / gm) * (am + 1 / bp),
        half * gp * gm * (1 / bp - am),
    )


def frozen_inner_barrier_block():
    e = 6.0
    ref = mp_inner_barrier_matrix(e, CANONICAL)
    got = factor_matrices(e, CANONICAL)[1]
    print("# inner-barrier step matrix at E = 6, 50-digit reference")
    print("INNER_BARRIER_E6 = (")
    for z_ref, z_got in zip(ref, got):
        z = complex(z_ref.real, z_ref.imag)
        err = abs(z - z_got)
        print(f"    {z!r},  # double-precision deviation {err:.2e}")
    print(")")


def mp_amplitudes(e, cfg):
    """T and R at 50 digits from the product of the four interface matrices.

    Each interface matrix is W_L(x)^-1 W_R(x) with
    W = [[e^{kx}, e^{-kx}], [s e^{kx}, -s e^{-kx}]], built from scratch
    on mpmath numbers, so it shares no floats with the production code
    and no step with its bounded walk.
    """
    m, e = mp.mpf(cfg.m), mp.mpf(e)
    waves = []
    for u in (0.0, cfg.v_plus, cfg.v_minus):
        d = e - mp.mpf(u)
        k = mp.sqrt(mp.mpc((m - d) * (m + d)))
        waves.append((k, k / (m + d)))
    a_minus, a = mp.mpf(cfg.a_minus), mp.mpf(cfg.a_plus) + mp.mpf(cfg.a_minus)

    def w(wave, x):
        k, s = wave
        return mp.matrix([[mp.exp(k * x), mp.exp(-k * x)],
                          [s * mp.exp(k * x), -s * mp.exp(-k * x)]])

    levels = (0, 1, 2, 1, 0)
    mat = mp.eye(2)
    for i, x in enumerate((-a, -a_minus, a_minus, a)):
        mat = mat * w(waves[levels[i]], x) ** -1 * w(waves[levels[i + 1]], x)
    return 1 / mat[0, 0], mat[1, 0] / mat[0, 0]


def frozen_sample_amplitudes():
    print("# T and R at the SAMPLE_ENERGIES of test_transfer.py, 50-digit "
          "reference")
    print("SAMPLE_AMPLITUDES = {")
    for e in SAMPLE_ENERGIES:
        t, r = (complex(z.real, z.imag) for z in mp_amplitudes(e, CANONICAL))
        s = scatter(e, CANONICAL)
        err = max(abs(s.t - t), abs(s.r - r))
        print(f"    {e!r}: ({t!r}, {r!r}),  # scatter deviation {err:.1e}")
    print("}")


def frozen_oracle_t2():
    e = 3.5
    amps = solve_amplitudes(e, CANONICAL)
    t2 = float(abs(amps.t) ** 2)
    print(f"# boundary-matching |T|^2 deep in the lower gap, E = 3.5")
    print(f"GAP_T2_E35 = {t2!r}")


def print_pins(name, pins):
    """One dict literal of four hex floats per key, two to a line."""
    print(f"{name} = {{")
    for key, (w, x, y, z) in pins.items():
        head = f"    {key!r}: ("
        print(f"{head}{w!r}, {x!r},")
        print(f"{' ' * len(head)}{y!r}, {z!r}),")
    print("}")


def oracle_pins():
    """The oracle's bit pins in tests/test_oracle.py, for the same keys.

    Regenerate them only after the oracle matches SAMPLE_AMPLITUDES, so
    that the pins record an oracle already checked against 50 digits.
    """
    def hexes(*zs):
        return tuple(h for z in zs for h in (z.real.hex(), z.imag.hex()))

    energies = sorted(SCALAR_PINS)
    one = {e: solve_amplitudes(e, CANONICAL) for e in energies}
    batch = solve_amplitudes(np.array(energies), CANONICAL)
    profile = wavefunction_profile(8.5, CANONICAL, sorted(PROFILE_PINS))
    print_pins("SCALAR_PINS", {e: hexes(one[e].t, one[e].r) for e in energies})
    print_pins("ARRAY_PINS", {e: hexes(complex(batch.t[i]), complex(batch.r[i]))
                              for i, e in enumerate(energies)})
    print_pins("PROFILE_PINS", {s.x: hexes(s.psi_plus, s.psi_minus) for s in profile})


def dense_grid_fwhm():
    cfg = CANONICAL
    conv = attach_widths(find_resonances(cfg, [Zone.CONVENTIONAL]), cfg)
    sharpest = min(conv, key=lambda r: r.fwhm)
    window = 40.0 * sharpest.fwhm
    grid = np.linspace(sharpest.energy - window, sharpest.energy + window, 1_000_000)
    t2 = np.array([scatter(float(x), cfg).t2 for x in grid])
    above = t2 >= 0.5
    idx = np.nonzero(above)[0]
    lo_i, hi_i = idx[0], idx[-1]

    def cross(i, j):
        x0, x1, y0, y1 = grid[i], grid[j], t2[i], t2[j]
        return x0 + (0.5 - y0) * (x1 - x0) / (y1 - y0)

    width = float(cross(hi_i, hi_i + 1) - cross(lo_i - 1, lo_i))
    print(f"# sharpest conventional resonance: level {sharpest.level} at "
          f"E = {sharpest.energy:.10f}")
    print(f"SHARPEST_CONV_LEVEL = {sharpest.level}")
    print(f"SHARPEST_CONV_FWHM_DENSE = {width!r}  "
          f"# marched estimate {sharpest.fwhm!r}")


def enhancement_factor():
    cfg = CANONICAL
    e_star = find_resonances(cfg, [Zone.LOWER_KLEIN])[0].energy
    inner = np.linspace(-cfg.a_minus, cfg.a_minus, 4001)
    outer = np.concatenate([
        np.linspace(-cfg.a - 10.0, -cfg.a, 4001),
        np.linspace(cfg.a, cfg.a + 10.0, 4001),
    ])
    floor_max = max(s.density for s in wavefunction_profile(e_star, cfg, inner))
    outside_max = max(s.density for s in wavefunction_profile(e_star, cfg, outer))
    print(f"# density enhancement on the floor at the first lower-zone "
          f"resonance, E = {e_star:.10f}")
    print(f"FLOOR_ENHANCEMENT = {float(floor_max / outside_max)!r}")


def other_config_counts():
    cfg = PotentialConfig(v_plus=10.0, v_minus=4.0, a_plus=3.0, a_minus=2.5)
    res = find_resonances(cfg, [Zone.LOWER_KLEIN, Zone.GAP_LOWER,
                                Zone.HIGHER_KLEIN, Zone.CONVENTIONAL])
    res += find_above_barrier(cfg, cfg.v_plus + 3.0)
    counts = {z.value: sum(1 for r in res if r.zone is z) for z in Zone}
    print("# counts for v_plus = 10, v_minus = 4, a_plus = 3, a_minus = 2.5,"
          " top zone to 13")
    print(f"TALL_BARRIER_COUNTS = {counts!r}")
    print("TALL_BARRIER_ENERGIES = (")
    for r in res:
        print(f"    {r.energy!r},  # {r.zone.value} level {r.level}")
    print(")")


def floor_width_endpoint_counts():
    print("# sub-barrier totals at the floor-width sweep endpoints")
    for am in (1.0, 3.0):
        cfg = PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=3.0, a_minus=am)
        res = find_resonances(cfg)
        conv = sum(1 for r in res if r.zone is Zone.CONVENTIONAL)
        name = f"FLOOR_{str(am).replace('.', '_')}"
        print(f"{name}_TOTAL = {len(res)}   # conventional part {conv}")


def main():
    frozen_inner_barrier_block()
    print()
    frozen_sample_amplitudes()
    print()
    frozen_oracle_t2()
    print()
    oracle_pins()
    print()
    dense_grid_fwhm()
    print()
    enhancement_factor()
    print()
    other_config_counts()
    print()
    floor_width_endpoint_counts()


if __name__ == "__main__":
    main()
