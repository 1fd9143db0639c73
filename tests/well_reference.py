"""The isolated well, the thick-barrier limit of the conventional resonances.

As a_plus grows, the conventional resonances (v_plus - m < E < v_plus + m)
tend to the bound states of the isolated well: the floor, of width
2 a_minus, between two semi-infinite barriers.  In the interface form of
the bounded walk (transfer module docstring), with k = sqrt((m - d)(m + d)),
s = k / (m + d) and d = E - U in each region, and rho = s_+ / s_- at the
floor's edge, the condition is

    e^{4 k_- a_minus} = ((1 - rho) / (1 + rho))^2.

In the conventional zone k_+ is real and k_- imaginary, so rho is
imaginary and u = e^{2 k_- a_minus} (1 + rho) / (1 - rho) has modulus 1:
the condition is u = +-1, that is Im u = 0, one real equation, solved
here with the package's brentq.  It uses no transfer matrix, no walk and
no 8x8 solve.  Each resonance approaches its well energy, and its width
vanishes, like e^{-2 kappa_+ a_plus} with kappa_+ = sqrt(m^2 - (E - v_plus)^2).

The Klein zones have no isolated-well limit.  There every region
propagates: the barriers have E - v_plus < -m, so k_+ is imaginary and
the wave propagates under them, and the floor has |E - v_minus| > m.
No width there decays like e^{-2 kappa_+ a_plus}, and thickening the
barriers confines nothing.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from dirac_double_barrier import PotentialConfig, Zone, resonance, zone_interval
from dirac_double_barrier.core import EVAL_MARGIN


def _wave(e: float, u: float, cfg: PotentialConfig) -> tuple[complex, complex]:
    """(k, s) of the region at height u."""
    m, d = cfg.m, e - u
    k = cmath.sqrt((m - d) * (m + d) + 0j)
    return k, k / (m + d)


def well_condition(e: float, cfg: PotentialConfig) -> float:
    """Im u, zero exactly at the well energies (see the module docstring)."""
    _, s_plus = _wave(e, cfg.v_plus, cfg)
    k_minus, s_minus = _wave(e, cfg.v_minus, cfg)
    rho = s_plus / s_minus
    return (cmath.exp(2.0 * k_minus * cfg.a_minus) * (1.0 + rho) / (1.0 - rho)).imag


def well_energies(cfg: PotentialConfig, points: int = 4000) -> list[float]:
    """The well energies in the conventional zone, ascending: every sign
    change of well_condition on a uniform grid, refined with brentq to
    1e-12 m.  They depend on the heights, a_minus and m, not on a_plus."""
    lo, hi = zone_interval(Zone.CONVENTIONAL, cfg)
    margin = EVAL_MARGIN * cfg.m
    grid = np.linspace(lo + margin, hi - margin, points).tolist()
    values = [well_condition(e, cfg) for e in grid]
    return [
        resonance.brentq(lambda e: well_condition(e, cfg), a, b, xtol=1e-12 * cfg.m)
        for a, b, fa, fb in zip(grid, grid[1:], values, values[1:])
        if (fa < 0.0) != (fb < 0.0)
    ]


def barrier_decay(e: float, cfg: PotentialConfig) -> float:
    """e^{-2 kappa_+ a_plus} at E, the rate of both the approach and the width."""
    kappa = math.sqrt((cfg.m - (e - cfg.v_plus)) * (cfg.m + (e - cfg.v_plus)))
    return math.exp(-2.0 * kappa * cfg.a_plus)
