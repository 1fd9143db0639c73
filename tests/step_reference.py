"""The four-call interface-matrix build, kept as a test-side reference.

Production builds the mirrored interface matrices in pairs that share
their four exponentials (P1 with P4, P2 with P3).  This is the form it
replaced, which evaluates every matrix on its own with four fresh
exponentials, 16 per energy.  The shared form must match it to the bit,
on floats and on arrays of any length.  The analytic determinants of
the four matrices live here too.
"""

from __future__ import annotations

import cmath

import numpy as np

from dirac_double_barrier import Matrix2x2, PotentialConfig
from dirac_double_barrier.transfer import _media


def _step(x: float, kl, kr, rho, xp) -> Matrix2x2:
    """Interface matrix W_L(x)^-1 W_R(x) between two regions meeting at x.

    rho = s_R / s_L, as production's _media divides it.
    """
    same = 0.5 * (1.0 + rho)
    flip = 0.5 * (1.0 - rho)
    u = (kr - kl) * x
    v = (kr + kl) * x
    return Matrix2x2(same * xp.exp(u), flip * xp.exp(-v),
                     flip * xp.exp(v), same * xp.exp(-u))


def factor_matrices(e, cfg: PotentialConfig) -> tuple[Matrix2x2, ...]:
    """P1..P4 at a float or an array of energies, no range checks."""
    xp = np if isinstance(e, np.ndarray) else cmath
    _, k0, kp, km, (rho0, rho1, rho2, rho3) = _media(e, cfg)
    return (
        _step(-cfg.a, k0, kp, rho3, xp),
        _step(-cfg.a_minus, kp, km, rho2, xp),
        _step(cfg.a_minus, km, kp, rho1, xp),
        _step(cfg.a, kp, k0, rho0, xp),
    )


def full_matrix(e, cfg: PotentialConfig) -> Matrix2x2:
    p1, p2, p3, p4 = factor_matrices(e, cfg)
    return p1 @ p2 @ p3 @ p4


def factor_determinants(e, cfg: PotentialConfig) -> tuple:
    """Analytic determinants s_R/s_L of P1..P4; their product is exactly 1.

    Each is the ratio of the lower-component weights of the two regions
    meeting at the step, so telescoping kills everything in the product.
    """
    rho0, rho1, rho2, rho3 = _media(e, cfg)[4]
    return rho3, rho2, rho1, rho0
