"""Boundary transfer matrices and the scattering amplitudes they encode.

In a region of constant potential U the spinor is a superposition
A e^{kx} u(k) + B e^{-kx} u(-k) on the basis u(k) = (1, s)^T, with
k = sqrt((m - d)(m + d)), d = E - U (principal branch, so Re k >= 0) and
s = k / (m + E - U).  Continuity of both components at an interface x
between a left region L and a right region R maps the right amplitudes
onto the left ones through one interface matrix,

    P = W_L(x)^-1 W_R(x),   W = [[e^{kx}, e^{-kx}], [s e^{kx}, -s e^{-kx}]],

and the structure has four of them, at x = -a, -a_minus, a_minus and a.
The same factors are contracted in two ways, and both read one
width-free half (_media): the k of the outside, barrier and floor
regions and the ratios rho = s_R / s_L at the four interfaces, which
depend on the energies and the heights alone.

The product M = P1 P2 P3 P4 (full_matrix, factor_matrices) is the
transfer matrix itself, for library callers; no command reads it.  The
paper tables (tests/paper_tables.py) build their own factors and are
checked against it.  Each det P = s_R / s_L, which telescopes to
det M = 1, and with M11 = conj(M22) and M12 = conj(M21) this gives
|T|^2 + |R|^2 = 1 for T = 1/M11 and R = M21/M11.  Each factor is built
on its own (_step), with four complex exp per energy.  The entries grow
like e^{2 kappa a_plus} under the barriers, so the product overflows
once a_plus passes a few hundred.

The bounded walk (scatter) gets T and R, which every command prints and
verify checks, from the same waves without forming M, the
scattering-matrix idea (Ko & Inkson, Phys. Rev. B 38, 9945 (1988);
L. Li, J. Opt. Soc. Am. A 13, 1024 (1996)).  Referenced
to the interface itself, P is [[c, f], [f, c]] with c = (1 + rho)/2,
f = (1 - rho)/2 and rho = s_R / s_L.  Walking inward from the
transmitted side, each interface maps the wave pair (a, b) by it, and
crossing a region of width w multiplies a by e^{-2kw} while a separate
factor tau collects e^{-kw}.  Then T = tau/a e^{-2 k0 a} and
R = b/a e^{-2 k0 a}.  Every factor has modulus at most 1, so nothing
overflows at any barrier width.  The walk's width half (_walk) holds
the decays and the recurrence, 2 complex exp per energy; scatter adds
the phase, a third (_amplitudes).  The resonance search reads only the
checked walk (_checked_walk): M21 = R/T = b/tau, as a and the phase
cancel.  It walks its grids in blocks (resonance._BLOCK), whose
temporaries stay in the heap where one 4,000-energy walk's are handed
back to the system and fault in again.  scatter runs _media, then
_amplitudes; a sweep over widths runs _media once per grid (_prepare)
and _amplitudes per frame (_finish).

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
from typing import NamedTuple

import numpy as np

from .core import PotentialConfig, screen
from .errors import DegenerateMatrix, NumericalOverflow

#: One energy, or a 1-D array of them.
Energy = float | np.ndarray

#: numpy's error state, which each half enters once on an array, run with
#: xp = np; a float runs with xp = cmath and enters none.
_QUIET = {"over": "ignore", "invalid": "ignore", "divide": "ignore"}


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


def _step(x: float, kl, kr, rho, xp) -> Matrix2x2:
    """Interface matrix W_L(x)^-1 W_R(x) between regions L and R meeting at x.

    With u = (k_R - k_L) x and v = (k_R + k_L) x it is
    [[c e^u, f e^-v], [f e^v, c e^-u]], where c = (1 + rho)/2,
    f = (1 - rho)/2 and rho = s_R / s_L.
    """
    same = 0.5 * (1.0 + rho)
    flip = 0.5 * (1.0 - rho)
    u = (kr - kl) * x
    v = (kr + kl) * x
    return Matrix2x2(same * xp.exp(u), flip * xp.exp(-v), flip * xp.exp(v), same * xp.exp(-u))


def _product(e: Energy, cfg: PotentialConfig, contract) -> tuple[Matrix2x2, ...]:
    """contract(P1, P2, P3, P4) at screened energies, every matrix of it
    checked finite; only an array enters numpy's error state."""
    screen(e, cfg)
    if isinstance(e, np.ndarray):
        with np.errstate(**_QUIET):
            return _checked_product(e, cfg, contract, np)
    return _checked_product(e, cfg, contract, cmath)


def _checked_product(e: Energy, cfg: PotentialConfig, contract, xp) -> tuple[Matrix2x2, ...]:
    """_product's body.  cmath raises OverflowError where numpy returns
    inf, and ValueError where an exponent's imaginary part is infinite, so
    those and a non-finite entry all raise NumericalOverflow."""
    media = _media(e, cfg, xp)
    _, k0, kp, km, (rho0, rho1, rho2, rho3) = media  # from x = +a inward
    try:
        mats = contract(_step(-cfg.a, k0, kp, rho3, xp), _step(-cfg.a_minus, kp, km, rho2, xp),
                        _step(cfg.a_minus, km, kp, rho1, xp), _step(cfg.a, kp, k0, rho0, xp))
        for mat in mats:
            # inf and nan survive summation, so a finite sum means
            # finite entries; inf - inf is why this stays in errstate
            ok = xp.isfinite(mat.m11 + mat.m12 + mat.m21 + mat.m22)
            if _first_failure(ok, e) is not None:
                raise _out_of_range(media, ok, "transfer-matrix entry overflowed")
    except (OverflowError, ValueError):
        raise NumericalOverflow(
            f"boundary exponential overflowed for a = {cfg.a:g}"
        ) from None
    return mats


def factor_matrices(e: Energy, cfg: PotentialConfig) -> tuple[Matrix2x2, Matrix2x2, Matrix2x2, Matrix2x2]:
    """The four interface matrices P1..P4, left to right."""
    return _product(e, cfg, lambda *factors: factors)


def full_matrix(e: Energy, cfg: PotentialConfig) -> Matrix2x2:
    """Transfer matrix spanning the whole structure, P1 P2 P3 P4."""
    return _product(e, cfg, lambda p1, p2, p3, p4: (p1 @ p2 @ p3 @ p4,))[0]


class ScatteringResult(NamedTuple):
    """Amplitudes and probabilities of one scattering event.

    For an array of energies every field is an array with one entry per
    energy; core.classify labels the energies e.  An immutable named
    tuple, like Matrix2x2: a curve split into rows builds one per energy,
    and tuple construction keeps that cheap.  Change a field with _replace.
    """

    e: float | np.ndarray
    t: complex | np.ndarray
    r: complex | np.ndarray
    t2: float | np.ndarray
    r2: float | np.ndarray


def _media(e: Energy, cfg: PotentialConfig, xp) -> tuple:
    """The width-free half of both contractions: (e, k0, kp, km, rhos),
    rhos from x = +a inward; a width sweep computes it once per grid.

    Admissible energies lie off every U +/- m, but at a scale m far from
    1 the squares in k overflow or underflow: an array carries what that
    leaves to the finiteness check of the walk or the product (see
    _out_of_range), and on a float an s that underflowed to 0 raises
    NumericalOverflow here.
    """
    m = cfg.m
    ks, ss = [], []
    try:
        for u in (0.0, cfg.v_plus, cfg.v_minus):
            d = e - u if u else e  # the outside's e - 0.0 is e, without a pass
            md = m + d
            # factored form keeps the difference of squares accurate near |d| = m
            k = xp.sqrt((m - d) * md + 0j)
            ks.append(k)
            ss.append(k / md)
        s0, sp, sm = ss
        return (e, *ks, (s0 / sp, sp / sm, sm / sp, sp / s0))
    except ZeroDivisionError:
        raise NumericalOverflow(f"wave vector out of double range at E = {e!r}") from None


def _out_of_range(media: tuple, ok, what: str) -> NumericalOverflow:
    """The error of a walk or product on media that failed where ok is
    false: a k or rho that is not finite (at a scale m far from 1), at the
    first energy it holds, else what happened at the first failure."""
    e, *waves, rhos = media
    bad = _first_failure(np.isfinite([*waves, *rhos]).all(axis=0), e)
    if bad is None:
        return NumericalOverflow(f"{what} at E = {_first_failure(ok, e)!r}")
    return NumericalOverflow(f"wave vector out of double range at E = {bad!r}")


def _walk(media: tuple, cfg: PotentialConfig, xp) -> tuple:
    """(a, b, tau) of the bounded walk on _media; T = tau/a and R = b/a
    times the outside phase (_amplitudes).

    The walk starts from (a, b) = (1/16, 0) on the transmitted side and
    maps the pair at each interface by 2 P(rho) = [[1 + rho, 1 - rho],
    [1 - rho, 1 + rho]], so that the four doublings restore the scale of
    (1, 0).  Between two interfaces a takes g^2 = e^{-2kw}; the decays
    g_+ = e^{-k_+ a_plus} and g_- = e^{-2 k_- a_minus} of the three
    regions crossed make tau = g_+^2 g_-.

    Raises NumericalOverflow where a wave exponent or _media's k or rho
    left double range, and DegenerateMatrix where the incident amplitude
    a vanished.
    """
    e, _, kp, km, (rho0, rho1, rho2, rho3) = media
    try:
        gp = xp.exp(-kp * cfg.a_plus)
        gm = xp.exp(-km * (2.0 * cfg.a_minus))
    except ValueError:  # cmath's exp of an infinite imaginary part
        raise _out_of_range(media, False, "wave exponent overflowed") from None
    gp2 = gp * gp
    # the first interface meets (1/16, 0); then from x = +a inward the
    # barrier, the floor and the barrier, in place on arrays the walk
    # owns: every fresh 20k-energy temporary costs page faults
    delta = rho0 * 0.0625
    a, b = 0.0625 + delta, 0.0625 - delta
    for g2, rho in ((gp2, rho1), (gm * gm, rho2), (gp2, rho3)):
        a *= g2
        delta = a - b
        # rho (a - b) into the temporary, not into rho, which the frames
        # of a sweep share; written as a product, numpy would reuse a
        # large temporary with the operands swapped, and its SIMD complex
        # product is not bitwise commutative
        delta = rho * delta if xp is cmath else np.multiply(rho, delta, out=delta)
        b += a         # sigma = a + b
        a = b + delta  # sigma + delta
        b -= delta     # sigma - delta
    ok = xp.isfinite(a)
    if not (ok if xp is cmath else ok.all()):
        raise _out_of_range(media, ok, "wave exponent overflowed")
    ok = abs(a) >= 1e-300
    if not (ok if xp is cmath else ok.all()):
        raise DegenerateMatrix(f"incident amplitude vanished at E = {_first_failure(ok, e)!r}")
    return a, b, gp2 * gm


def _checked_walk(e: Energy, cfg: PotentialConfig) -> tuple:
    """(a, b, tau): both halves of the walk at admissible energies, unscreened."""
    if isinstance(e, np.ndarray):
        with np.errstate(**_QUIET):
            return _walk(_media(e, cfg, np), cfg, np)
    return _walk(_media(e, cfg, cmath), cfg, cmath)


def _amplitudes(media: tuple, cfg: PotentialConfig, xp) -> tuple:
    """(T, R): _walk's tau/a and b/a times the outside phase e^{-2 k0 a},
    of modulus 1, as the outside wave propagates."""
    a, b, tau = _walk(media, cfg, xp)
    try:
        phase = xp.exp(media[1] * (-2.0 * cfg.a))
    except ValueError:  # as in _walk
        raise _out_of_range(media, False, "wave exponent overflowed") from None
    ok = xp.isfinite(phase)
    if not (ok if xp is cmath else ok.all()):
        raise _out_of_range(media, ok, "wave exponent overflowed")
    q = phase / a
    return tau * q, b * q


def _prepare(e: Energy, cfg: PotentialConfig) -> tuple:
    """scatter's width-free half: _media at screened energies."""
    screen(e, cfg)
    if isinstance(e, np.ndarray):
        with np.errstate(**_QUIET):
            return _media(e, cfg, np)
    return _media(e, cfg, cmath)


def _finish(media: tuple, cfg: PotentialConfig) -> ScatteringResult:
    """scatter's width half: the result at cfg's widths on a _prepare of its heights."""
    if isinstance(media[0], np.ndarray):
        with np.errstate(**_QUIET):
            t, r = _amplitudes(media, cfg, np)
    else:
        t, r = _amplitudes(media, cfg, cmath)
    return ScatteringResult(media[0], t, r, abs(t) ** 2, abs(r) ** 2)


def scatter(e: Energy, cfg: PotentialConfig) -> ScatteringResult:
    """Transmission and reflection at energy E, or at each energy of an array.

    Contracts the interface matrices as the bounded walk (see the module
    docstring), valid at any barrier width; |T|^2 + |R|^2 = 1 up to
    roundoff.  The amplitudes are those of the product, T = 1/M11 and
    R = M21/M11, to roundoff.  It runs _prepare, then _finish.
    """
    return _finish(_prepare(e, cfg), cfg)
