"""The paper's literal transfer-matrix tables, kept as a test-side reference.

Each of the three energy ranges has its own explicit set of four step
matrices M1..M4, written in the ratio form of the paper: spinor weights
alpha, beta and the boundary exponentials sigma, gamma.  The entries are
deliberately free of algebraic shortcuts so they can be checked one by
one against the paper and against the 50-digit golden in frozen_values.
Production evaluates one general interface-matrix formula instead; the
product of these tables is the independent reference it is tested
against (T = 1/M11 and R = M21/M11 agree, the matrices themselves need
not, since the inner regions use a different amplitude normalization).
The analytic determinants of production's own four matrices
(factor_determinants) live here too.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from dirac_double_barrier import (
    Kinematics,
    Matrix2x2,
    MatrixRange,
    NumericalOverflow,
    PotentialConfig,
    Region,
    classify,
    kinematics,
)
from dirac_double_barrier.transfer import _media


@dataclass(frozen=True)
class BoundaryFactors:
    """Exponential factors evaluated at the matching points.

    sigma0 and sigma_plus carry the outer boundaries at |x| = a, the
    gammas the inner ones at |x| = a_minus.  Each is exp(a k) for the
    appropriate region and position, so evanescent regions give real
    growth factors and oscillatory regions give unimodular phases.
    """

    sigma0: complex
    sigma_plus: complex
    gamma_plus: complex
    gamma_minus: complex


def _factors(cfg: PotentialConfig, k0: complex, kp: complex, km: complex) -> BoundaryFactors:
    try:
        bf = BoundaryFactors(
            sigma0=cmath.exp(cfg.a * k0),
            sigma_plus=cmath.exp(cfg.a * kp),
            gamma_plus=cmath.exp(cfg.a_minus * kp),
            gamma_minus=cmath.exp(cfg.a_minus * km),
        )
    except OverflowError as exc:
        raise NumericalOverflow(
            f"boundary exponential overflowed for a = {cfg.a:g}: {exc}"
        ) from None
    return bf


def boundary_factors(e: float, cfg: PotentialConfig) -> BoundaryFactors:
    """Boundary exponentials at energy E."""
    k0 = kinematics(e, Region.ZERO, cfg).k
    kp = kinematics(e, Region.PLUS, cfg).k
    km = kinematics(e, Region.MINUS, cfg).k
    return _factors(cfg, k0, kp, km)


def _range_i(bf: BoundaryFactors, kin0: Kinematics, kinp: Kinematics,
             kinm: Kinematics) -> tuple[Matrix2x2, Matrix2x2, Matrix2x2, Matrix2x2]:
    # m < E < v_minus: outside oscillatory, both inner regions evanescent
    # in the sense of the branch choice; weights enter as alpha0, beta+,
    # beta-.
    a0 = kin0.alpha
    bp = kinp.beta
    bm = kinm.beta
    s0, sp = bf.sigma0, bf.sigma_plus
    gp, gm = bf.gamma_plus, bf.gamma_minus
    m1 = Matrix2x2(
        0.5 * s0 * sp * (1.0 / a0 - bp),
        0.5 * (s0 / sp) * (1.0 / a0 + bp),
        -0.5 * (sp / s0) * (1.0 / a0 + bp),
        0.5 / (s0 * sp) * (bp - 1.0 / a0),
    )
    m2 = Matrix2x2(
        0.5 * (gm / gp) * (1.0 + bm / bp),
        0.5 / (gp * gm) * (1.0 - bm / bp),
        0.5 * gp * gm * (1.0 - bm / bp),
        0.5 * (gp / gm) * (1.0 + bm / bp),
    )
    m3 = Matrix2x2(
        0.5 * (gm / gp) * (1.0 + bp / bm),
        0.5 * gp * gm * (1.0 - bp / bm),
        0.5 / (gp * gm) * (1.0 - bp / bm),
        0.5 * (gp / gm) * (1.0 + bp / bm),
    )
    m4 = Matrix2x2(
        0.5 * s0 * sp * (a0 - 1.0 / bp),
        -0.5 * (sp / s0) * (a0 + 1.0 / bp),
        0.5 * (s0 / sp) * (a0 + 1.0 / bp),
        0.5 / (s0 * sp) * (1.0 / bp - a0),
    )
    return m1, m2, m3, m4


def _range_ii(bf: BoundaryFactors, kin0: Kinematics, kinp: Kinematics,
              kinm: Kinematics) -> tuple[Matrix2x2, Matrix2x2, Matrix2x2, Matrix2x2]:
    # v_minus < E < v_plus: the outer matrices coincide with range I, the
    # inner pair swaps beta- for alpha-.
    a0 = kin0.alpha
    bp = kinp.beta
    am = kinm.alpha
    s0, sp = bf.sigma0, bf.sigma_plus
    gp, gm = bf.gamma_plus, bf.gamma_minus
    m1 = Matrix2x2(
        0.5 * s0 * sp * (1.0 / a0 - bp),
        0.5 * (s0 / sp) * (1.0 / a0 + bp),
        -0.5 * (sp / s0) * (1.0 / a0 + bp),
        0.5 / (s0 * sp) * (bp - 1.0 / a0),
    )
    m2 = Matrix2x2(
        0.5 / (gp * gm) * (am - 1.0 / bp),
        -0.5 * (gm / gp) * (am + 1.0 / bp),
        0.5 * (gp / gm) * (am + 1.0 / bp),
        0.5 * gp * gm * (1.0 / bp - am),
    )
    m3 = Matrix2x2(
        0.5 / (gp * gm) * (1.0 / am - bp),
        0.5 * (gp / gm) * (1.0 / am + bp),
        -0.5 * (gm / gp) * (1.0 / am + bp),
        0.5 * gp * gm * (bp - 1.0 / am),
    )
    m4 = Matrix2x2(
        0.5 * s0 * sp * (a0 - 1.0 / bp),
        -0.5 * (sp / s0) * (a0 + 1.0 / bp),
        0.5 * (s0 / sp) * (a0 + 1.0 / bp),
        0.5 / (s0 * sp) * (1.0 / bp - a0),
    )
    return m1, m2, m3, m4


def _range_iii(bf: BoundaryFactors, kin0: Kinematics, kinp: Kinematics,
               kinm: Kinematics) -> tuple[Matrix2x2, Matrix2x2, Matrix2x2, Matrix2x2]:
    # E > v_plus: every region oscillatory, everything in terms of alphas.
    a0 = kin0.alpha
    ap = kinp.alpha
    am = kinm.alpha
    s0, sp = bf.sigma0, bf.sigma_plus
    gp, gm = bf.gamma_plus, bf.gamma_minus
    m1 = Matrix2x2(
        0.5 * (s0 / sp) * (1.0 + ap / a0),
        0.5 * s0 * sp * (1.0 - ap / a0),
        0.5 / (s0 * sp) * (1.0 - ap / a0),
        0.5 * (sp / s0) * (1.0 + ap / a0),
    )
    m2 = Matrix2x2(
        0.5 * (gp / gm) * (1.0 + am / ap),
        0.5 * gp * gm * (1.0 - am / ap),
        0.5 / (gp * gm) * (1.0 - am / ap),
        0.5 * (gm / gp) * (1.0 + am / ap),
    )
    m3 = Matrix2x2(
        0.5 * (gp / gm) * (1.0 + ap / am),
        0.5 / (gp * gm) * (1.0 - ap / am),
        0.5 * gp * gm * (1.0 - ap / am),
        0.5 * (gm / gp) * (1.0 + ap / am),
    )
    m4 = Matrix2x2(
        0.5 * (s0 / sp) * (1.0 + a0 / ap),
        0.5 / (s0 * sp) * (1.0 - a0 / ap),
        0.5 * s0 * sp * (1.0 - a0 / ap),
        0.5 * (sp / s0) * (1.0 + a0 / ap),
    )
    return m1, m2, m3, m4


_TABLES = {
    MatrixRange.I: _range_i,
    MatrixRange.II: _range_ii,
    MatrixRange.III: _range_iii,
}


def factor_matrices(e: float, cfg: PotentialConfig) -> tuple[Matrix2x2, Matrix2x2, Matrix2x2, Matrix2x2]:
    """The paper's four per-step matrices M1..M4 for the range containing E."""
    rng, _ = classify(e, cfg)
    kin0 = kinematics(e, Region.ZERO, cfg)
    kinp = kinematics(e, Region.PLUS, cfg)
    kinm = kinematics(e, Region.MINUS, cfg)
    bf = _factors(cfg, kin0.k, kinp.k, kinm.k)
    return _TABLES[rng](bf, kin0, kinp, kinm)


def full_matrix(e: float, cfg: PotentialConfig) -> Matrix2x2:
    """The paper's product M1 M2 M3 M4."""
    m1, m2, m3, m4 = factor_matrices(e, cfg)
    return m1 @ m2 @ m3 @ m4


def amplitudes(e: float, cfg: PotentialConfig) -> tuple[complex, complex]:
    """(T, R) = (1/M11, M21/M11) from the paper's product."""
    m = full_matrix(e, cfg)
    return 1.0 / m.m11, m.m21 / m.m11


def factor_determinants(e, cfg: PotentialConfig) -> tuple:
    """Analytic determinants s_R/s_L of production's P1..P4, at a float or
    an array of energies; their product is exactly 1.

    Each is the ratio of the lower-component weights of the two regions
    meeting at the step, so telescoping kills everything in the product.
    """
    rho0, rho1, rho2, rho3 = _media(e, cfg, np if isinstance(e, np.ndarray) else cmath)[4]
    return rho3, rho2, rho1, rho0
