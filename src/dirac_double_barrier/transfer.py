"""Boundary transfer matrices and the scattering amplitudes they encode.

In a region of constant potential U the spinor is a superposition
A e^{kx} u(k) + B e^{-kx} u(-k) on the basis u(k) = (1, s)^T, with
k = sqrt((m - d)(m + d)), d = E - U (principal branch) and
s = k / (m + E - U).  Continuity of both components at an interface x
between a left region L and a right region R maps the right amplitudes
onto the left ones through one interface matrix,

    P = W_L(x)^-1 W_R(x),   W = [[e^{kx}, e^{-kx}], [s e^{kx}, -s e^{-kx}]],

and the structure has four of them, at x = -a, -a_minus, a_minus and a,
so the full transfer matrix is M = P1 P2 P3 P4.  Each det P = s_R / s_L,
which telescopes to det M = 1.  With M11 = conj(M22) and M12 = conj(M21)
this gives |T|^2 + |R|^2 = 1 for T = 1/M11 and R = M21/M11.

The structure is mirror-symmetric, so P4 is P1 and P3 is P2 seen from
the other side: the exponents at +x are those at -x, with the e^{+-v}
pair swapped, to the bit.  Each mirrored pair therefore shares its four
exponentials, 8 complex exp per energy instead of 16.

Every function here takes either a float or a 1-D numpy array of
energies and runs the same formula on it: a float goes through cmath and
yields Python complex numbers, an array goes through numpy ufuncs
entrywise and yields arrays.  Keep single energies scalar: a one-element
array costs several times more than a float.  The literal per-range
formula tables of the paper live with the tests (tests/paper_tables.py),
as the independent reference this formula is checked against.
"""

from __future__ import annotations

import cmath
from contextlib import nullcontext
from typing import NamedTuple

import numpy as np

from .core import MatrixRange, PotentialConfig, Zone, classify
from .errors import DegenerateMatrix, NumericalOverflow

#: One energy, or a 1-D array of them.
Energy = float | np.ndarray


class Matrix2x2(NamedTuple):
    """Complex 2x2 matrix with just the operations the engine needs.

    The entries are complex numbers, or complex arrays that hold one
    matrix per energy; the operations then act energy by energy.  A
    named tuple rather than a dataclass, because the scalar path builds
    seven of them per energy.
    """

    m11: complex | np.ndarray
    m12: complex | np.ndarray
    m21: complex | np.ndarray
    m22: complex | np.ndarray

    def __matmul__(self, other: "Matrix2x2") -> "Matrix2x2":
        return Matrix2x2(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def det(self) -> complex | np.ndarray:
        return self.m11 * self.m22 - self.m12 * self.m21

    def entries(self) -> tuple:
        return tuple(self)


def _first_failure(ok, e: Energy):
    """None where ok holds for every energy, else the first energy it fails at."""
    if isinstance(ok, np.ndarray):
        return None if ok.all() else float(e[ok.argmin()])
    return None if ok else e


def _waves(e: Energy, cfg: PotentialConfig, xp) -> list:
    """(k, s) of the outside, barrier and floor regions, in that order."""
    m = cfg.m
    out = []
    for u in (0.0, cfg.v_plus, cfg.v_minus):
        d = e - u
        # factored form keeps the difference of squares accurate near |d| = m
        k = xp.sqrt((m - d) * (m + d) + 0j)
        out.append((k, k / (m + d)))
    return out


def _exp_pm(z, xp) -> tuple:
    """e^z and e^-z."""
    return xp.exp(z), xp.exp(-z)


def _interface(rho, eu, emu, up, down) -> Matrix2x2:
    """[[c e^u, f up], [f down, c e^-u]] with c = (1 + rho)/2, f = (1 - rho)/2."""
    same = 0.5 * (1.0 + rho)
    flip = 0.5 * (1.0 - rho)
    # each product takes a fresh copy (+z), so that it rounds as a product
    # with a fresh exp() result does (tests/step_reference.py): numpy
    # multiplies into a large temporary in place with the operands
    # swapped, and its SIMD complex product is not bitwise commutative
    return Matrix2x2(same * +eu, flip * +up, flip * +down, same * +emu)


def _step_pair(x: float, outer: tuple, inner: tuple, xp) -> tuple[Matrix2x2, Matrix2x2]:
    """Interface matrices W_L(x)^-1 W_R(x) at -x (outer to inner) and at +x (back out).

    With u = (k_in - k_out)(-x) and v = (k_in + k_out)(-x) the matrix at
    -x is [[c e^u, f e^-v], [f e^v, c e^-u]], where c = (1 + rho)/2,
    f = (1 - rho)/2 and rho = s_R / s_L.  The mirrored matrix at +x has
    the arguments (k_out - k_in)x = u and (k_out + k_in)x = -v exactly,
    since negation is exact and addition commutes, so it reuses the
    four exponentials with e^v and e^-v trading places, and its own rho.
    """
    (ko, so), (ki, si) = outer, inner
    eu, emu = _exp_pm((ki - ko) * -x, xp)
    ev, emv = _exp_pm((ki + ko) * -x, xp)
    return _interface(si / so, eu, emu, emv, ev), _interface(so / si, eu, emu, ev, emv)


def _steps(e: Energy, cfg: PotentialConfig, xp) -> tuple[Matrix2x2, ...]:
    zero, plus, minus = _waves(e, cfg, xp)
    p1, p4 = _step_pair(cfg.a, zero, plus, xp)
    p2, p3 = _step_pair(cfg.a_minus, plus, minus, xp)
    return p1, p2, p3, p4


def _evaluate(e: Energy, cfg: PotentialConfig, multiply: bool) -> tuple[Matrix2x2, ...]:
    """P1..P4, or their product alone, with overflow raised as NumericalOverflow.

    cmath raises OverflowError where numpy returns inf, so both the
    exception and non-finite entries count.
    """
    array = isinstance(e, np.ndarray)
    xp = np if array else cmath
    try:
        with np.errstate(over="ignore", invalid="ignore") if array else nullcontext():
            mats = _steps(e, cfg, xp)
            if multiply:
                mats = (mats[0] @ mats[1] @ mats[2] @ mats[3],)
    except OverflowError:
        raise NumericalOverflow(
            f"boundary exponential overflowed for a = {cfg.a:g}"
        ) from None
    for mat in mats:
        # inf and nan survive summation, so a finite sum means finite entries
        at = _first_failure(xp.isfinite(mat.m11 + mat.m12 + mat.m21 + mat.m22), e)
        if at is not None:
            raise NumericalOverflow(f"transfer-matrix entry overflowed at E = {at!r}")
    return mats


def factor_matrices(e: Energy, cfg: PotentialConfig) -> tuple[Matrix2x2, Matrix2x2, Matrix2x2, Matrix2x2]:
    """The four interface matrices P1..P4, left to right."""
    classify(e, cfg)
    return _evaluate(e, cfg, multiply=False)


def factor_determinants(e: Energy, cfg: PotentialConfig) -> tuple:
    """Analytic determinants s_R/s_L of P1..P4; their product is exactly 1.

    Each is the ratio of the lower-component weights of the two regions
    meeting at the step, so telescoping kills everything in the product.
    """
    classify(e, cfg)
    xp = np if isinstance(e, np.ndarray) else cmath
    (_, s0), (_, sp), (_, sm) = _waves(e, cfg, xp)
    return (sp / s0, sm / sp, sp / sm, s0 / sp)


def full_matrix(e: Energy, cfg: PotentialConfig) -> Matrix2x2:
    """Transfer matrix spanning the whole structure, P1 P2 P3 P4."""
    classify(e, cfg)
    return _evaluate(e, cfg, multiply=True)[0]


class ScatteringResult(NamedTuple):
    """Amplitudes and probabilities of one scattering event.

    For an array of energies every field is an array with one entry per
    energy; matrix_range and zone are then object arrays of enum members.
    An immutable named tuple, like Matrix2x2: a curve split into rows
    builds one per energy, and tuple construction keeps that cheap.
    Change a field with _replace.
    """

    e: float | np.ndarray
    t: complex | np.ndarray
    r: complex | np.ndarray
    t2: float | np.ndarray
    r2: float | np.ndarray
    matrix_range: MatrixRange | np.ndarray
    zone: Zone | np.ndarray


def scatter(e: Energy, cfg: PotentialConfig) -> ScatteringResult:
    """Transmission and reflection at energy E, or at each energy of an array.

    T = 1/M11, R = M21/M11; flux conservation guarantees
    |T|^2 + |R|^2 = 1 up to roundoff.
    """
    rng, zone = classify(e, cfg)
    (m,) = _evaluate(e, cfg, multiply=True)
    at = _first_failure(abs(m.m11) >= 1e-300, e)
    if at is not None:
        raise DegenerateMatrix(f"M11 vanished at E = {at!r}")
    t = 1.0 / m.m11
    r = m.m21 / m.m11
    return ScatteringResult(
        e=e,
        t=t,
        r=r,
        t2=abs(t) ** 2,
        r2=abs(r) ** 2,
        matrix_range=rng,
        zone=zone,
    )
