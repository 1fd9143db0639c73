"""Boundary transfer matrices and the scattering amplitudes they encode.

In a region of constant potential U the spinor is a superposition
A e^{kx} u(k) + B e^{-kx} u(-k) on the basis u(k) = (1, s)^T, with
k = sqrt((m - d)(m + d)), d = E - U (principal branch, so Re k >= 0) and
s = k / (m + E - U).  Continuity of both components at an interface x
between a left region L and a right region R maps the right amplitudes
onto the left ones through one interface matrix,

    P = W_L(x)^-1 W_R(x),   W = [[e^{kx}, e^{-kx}], [s e^{kx}, -s e^{-kx}]],

and the structure has four of them, at x = -a, -a_minus, a_minus and a.
The same factors are contracted in two ways.

The product M = P1 P2 P3 P4 (full_matrix, factor_matrices) is the
transfer matrix itself, for verify, the paper tables and library
callers.  Each det P = s_R / s_L, which telescopes to det M = 1, and with
M11 = conj(M22) and M12 = conj(M21) this gives |T|^2 + |R|^2 = 1 for
T = 1/M11 and R = M21/M11.  The structure is mirror-symmetric, so P4 is
P1 and P3 is P2 seen from the other side: the exponents at +x are those
at -x, with the e^{+-v} pair swapped, to the bit.  Each mirrored pair
therefore shares its four exponentials, 8 complex exp per energy
instead of 16.  Its entries grow like e^{2 kappa a_plus} under the
barriers, so it overflows once a_plus passes a few hundred.

The bounded walk (scatter) gets T and R from the same waves without
forming M, the scattering-matrix idea (Ko & Inkson, Phys. Rev. B 38,
9945 (1988); L. Li, J. Opt. Soc. Am. A 13, 1024 (1996)).  Referenced
to the interface itself, P is [[c, f], [f, c]] with c = (1 + rho)/2,
f = (1 - rho)/2 and rho = s_R / s_L.  Walking inward from the
transmitted side, each interface maps the wave pair (a, b) by it, and
crossing a region of width w multiplies a by e^{-2kw} while a separate
factor tau collects e^{-kw}.  Then T = tau/a e^{-2 k0 a} and
R = b/a e^{-2 k0 a}.  Every factor has modulus at most 1, so nothing
overflows at any barrier width, and an energy costs 3 complex exp.
The resonance search reads the checked walk (_checked_walk) as well:
M21 = R/T = b/tau, since a and the phase cancel from that ratio, so it
needs no product.  The walk comes in two halves: the wave vectors and
the ratios rho (_media) depend on the energies and the heights alone,
the decays, the phase and the recurrence (_walk) on the widths.  scatter
runs both; a sweep over widths runs the first once per grid (_prepare,
which also classifies the energies) and the second per frame (_finish).

Every function here takes either a float or a 1-D numpy array of
energies and runs the same formula on it: a float goes through cmath and
yields Python complex numbers, an array goes through numpy ufuncs
entrywise and yields arrays.  Keep single energies scalar: a one-element
array costs several times more than a float.  The literal per-range
formula tables of the paper live with the tests (tests/paper_tables.py),
as the independent reference both contractions are checked against.
"""

from __future__ import annotations

import cmath
from contextlib import nullcontext
from typing import NamedTuple

import numpy as np

from .core import MatrixRange, PotentialConfig, Zone, classify, screen
from .errors import DegenerateMatrix, NumericalOverflow

#: One energy, or a 1-D array of them.
Energy = float | np.ndarray

#: The context a float runs in: numpy's error state concerns arrays alone.
_SCALAR = nullcontext()


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
        with _quiet(e):
            mats = _steps(e, cfg, xp)
            if multiply:
                mats = (mats[0] @ mats[1] @ mats[2] @ mats[3],)
            for mat in mats:
                # inf and nan survive summation, so a finite sum means
                # finite entries; inf - inf is why this stays in errstate
                at = _first_failure(xp.isfinite(mat.m11 + mat.m12 + mat.m21 + mat.m22), e)
                if at is not None:
                    raise NumericalOverflow(f"transfer-matrix entry overflowed at E = {at!r}")
    except OverflowError:
        raise NumericalOverflow(
            f"boundary exponential overflowed for a = {cfg.a:g}"
        ) from None
    return mats


def factor_matrices(e: Energy, cfg: PotentialConfig) -> tuple[Matrix2x2, Matrix2x2, Matrix2x2, Matrix2x2]:
    """The four interface matrices P1..P4, left to right."""
    screen(e, cfg)
    return _evaluate(e, cfg, multiply=False)


def full_matrix(e: Energy, cfg: PotentialConfig) -> Matrix2x2:
    """Transfer matrix spanning the whole structure, P1 P2 P3 P4."""
    screen(e, cfg)
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


def _quiet(e: Energy):
    """The error state the walk runs in.  On an array, overflow and invalid
    results are left to its finiteness checks; a float needs no context."""
    return np.errstate(over="ignore", invalid="ignore") if isinstance(e, np.ndarray) else _SCALAR


def _media(e: Energy, cfg: PotentialConfig) -> tuple:
    """The walk's width-free half: (e, k0, kp, km, rhos).

    k of the outside, barrier and floor regions, and rho = s_R / s_L at
    the four interfaces from x = +a inward, depend on the energies and
    the heights alone, so a sweep over widths computes them once per grid.
    It needs no error state: admissible energies lie off every U +/- m,
    where m + E - U or some s would vanish.
    """
    (k0, s0), (kp, sp), (km, sm) = _waves(e, cfg, np if isinstance(e, np.ndarray) else cmath)
    return e, k0, kp, km, (s0 / sp, sp / sm, sm / sp, sp / s0)


def _walk(media: tuple, cfg: PotentialConfig) -> tuple:
    """(a, b, tau, phase) of the bounded walk on _media, in _quiet(e).

    T = tau/a phase and R = b/a phase.  The walk starts from (a, b) =
    (1/16, 0) on the transmitted side and maps the pair at each interface
    by 2 P(rho) = [[1 + rho, 1 - rho], [1 - rho, 1 + rho]], so that the
    four doublings restore the scale of (1, 0).  Between two interfaces a
    takes g^2 = e^{-2kw}; the decays g_+ = e^{-k_+ a_plus} and
    g_- = e^{-2 k_- a_minus} of the three regions crossed make
    tau = g_+^2 g_-.  phase = e^{-2 k0 a} has modulus 1, since the
    outside wave propagates.

    Raises NumericalOverflow where a wave exponent passed double range and
    DegenerateMatrix where the incident amplitude a vanished.
    """
    e, k0, kp, km, (rho0, rho1, rho2, rho3) = media
    array = isinstance(e, np.ndarray)
    xp = np if array else cmath
    try:
        with _quiet(e):
            gp = xp.exp(-kp * cfg.a_plus)
            gm = xp.exp(-km * (2.0 * cfg.a_minus))
            gp2 = gp * gp
            # the first interface meets (1/16, 0); then from x = +a inward
            # the barrier, the floor and the barrier.  In place on arrays
            # the walk owns, since every fresh 20k-energy temporary costs
            # the allocator page faults.
            delta = rho0 * 0.0625
            a, b = 0.0625 + delta, 0.0625 - delta
            for g2, rho in ((gp2, rho1), (gm * gm, rho2), (gp2, rho3)):
                a *= g2
                delta = a - b
                # rho (a - b) into the temporary, not into rho, which the
                # frames of a sweep share; written as a product, numpy would
                # reuse a large temporary with the operands swapped (see
                # _interface)
                delta = np.multiply(rho, delta, out=delta) if array else rho * delta
                b += a         # sigma = a + b
                a = b + delta  # sigma + delta
                b -= delta     # sigma - delta
            phase = xp.exp(k0 * (-2.0 * cfg.a))
            at = _first_failure(xp.isfinite(a + phase), e)
    except ValueError:  # cmath's exp of an infinite imaginary part
        at = e
    if at is not None:
        # only an exponent past double range gets here: k a_plus or k0 a
        raise NumericalOverflow(f"wave exponent overflowed at E = {at!r}")
    at = _first_failure(abs(a) >= 1e-300, e)
    if at is not None:
        raise DegenerateMatrix(f"incident amplitude vanished at E = {at!r}")
    return a, b, gp2 * gm, phase


def _checked_walk(e: Energy, cfg: PotentialConfig) -> tuple:
    """Both halves of the walk at admissible energies, with no screen of the energies."""
    return _walk(_media(e, cfg), cfg)


def _amplitudes(walk: tuple) -> tuple:
    """(T, R) of a checked walk's (a, b, tau, phase), where |a| >= 1e-300."""
    a, b, tau, phase = walk
    q = phase / a
    return tau * q, b * q


def _prepare(e: Energy, cfg: PotentialConfig) -> tuple:
    """scatter's width-free half: the matrix ranges and zones of E, and _media."""
    rng, zone = classify(e, cfg)
    return rng, zone, _media(e, cfg)


def _finish(prepared: tuple, cfg: PotentialConfig) -> ScatteringResult:
    """scatter's width half: the result at cfg's widths on a _prepare of its heights."""
    rng, zone, media = prepared
    t, r = _amplitudes(_walk(media, cfg))
    return ScatteringResult(media[0], t, r, abs(t) ** 2, abs(r) ** 2, rng, zone)


def scatter(e: Energy, cfg: PotentialConfig) -> ScatteringResult:
    """Transmission and reflection at energy E, or at each energy of an array.

    Contracts the interface matrices as the bounded walk (see the module
    docstring), valid at any barrier width; |T|^2 + |R|^2 = 1 up to
    roundoff.  The amplitudes are those of the product, T = 1/M11 and
    R = M21/M11, to roundoff.  It runs _prepare, then _finish.
    """
    return _finish(_prepare(e, cfg), cfg)
