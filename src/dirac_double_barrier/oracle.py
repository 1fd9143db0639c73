"""Independent scattering solver by direct boundary matching.

Writes the general solution in each of the five constant-potential
regions on the unnormalized spinor basis

    u(kappa) = (1, kappa / (m + E - U))^T,  weights A e^{kappa (x - x_A)} + B e^{-kappa (x - x_B)},

and imposes continuity of both components by one rule at each of the
four interfaces: the waves of the region on the left equal those of the
region on the right.  The rule reads the level of each region
(_LEVEL_OF), the interface positions (_edges) and the reference points
x_A and x_B (_references).  A finite region (1, 2, 3) references A at
its right edge and B at its left one, so with Re kappa >= 0 none of its
weights exceeds 1 in modulus and the system stays finite at any barrier
width.  Each distinct (level, offset) exponential is computed once, four
per energy.  The two outside regions reference x = 0, which fixes the
phase of t and r.  With unit incidence from the left (A1 = 1) and
nothing returning on the right (B5 = 0) that leaves an 8x8 complex
linear system.  This basis and bookkeeping differ deliberately from the
ratio form behind the transfer matrices, so the two routes to T and R
share no transcription and can cross-check each other; nothing here
comes from transfer.py.

solve_amplitudes takes one energy or a 1-D array of them and builds the
same matrix entries either way: a float goes through cmath into one 8x8
system, an array through numpy into an (n, 8, 8) stack that a single
np.linalg.solve call handles.  Arrays are solved _CHUNK energies at a
time, because a stack and the temporaries of its solve and residual take
about 1.3 kB per energy: unsplit, the 10,000 energies of a default verify
run would add some 13 MB, a third, to its peak memory.
"""

from __future__ import annotations

import cmath
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .core import PotentialConfig, Region, _reject_singular
from .errors import SingularSystem

#: Relative residual above which the linear solve is reported as singular.
RESIDUAL_LIMIT = 1e-10

#: Energies per stacked solve, which bounds the memory an array call holds.
_CHUNK = 1024

#: The distinct regions, in the order _waves returns them.
_LEVELS = (Region.ZERO, Region.PLUS, Region.MINUS)

#: Region index, left to right -> its level, an index into _LEVELS.
_LEVEL_OF = (0, 1, 2, 1, 0)


@dataclass(frozen=True)
class AmplitudeSet:
    """Right- and left-moving amplitudes (A, B) per region, left to right.

    a[0], b[0], a[4] and b[4] weight waves referenced at x = 0; the
    interior a[1..3] weight e^{kappa x} referenced at their region's right
    edge and b[1..3] weight e^{-kappa x} referenced at its left edge.
    a[0] = 1 is the incident amplitude and b[4] = 0 by construction;
    the transmitted amplitude is a[4], the reflected one b[0].  For an
    array of energies every amplitude and the residual are arrays with
    one entry per energy.
    """

    a: tuple
    b: tuple
    residual: float | np.ndarray

    @property
    def t(self) -> complex | np.ndarray:
        return self.a[4]

    @property
    def r(self) -> complex | np.ndarray:
        return self.b[0]


@dataclass(frozen=True)
class SpinorSample:
    """Both spinor components at one position."""

    x: float
    psi_plus: complex
    psi_minus: complex

    @property
    def density(self) -> float:
        return abs(self.psi_plus) ** 2 + abs(self.psi_minus) ** 2


def _waves(e, cfg: PotentialConfig) -> list:
    """(kappa, slope) of the outside, barrier and floor regions, in that order.

    kappa is the principal sqrt of m^2 - (E - U)^2, as core.kinematics
    takes it, and the slope kappa / (m + E - U) is the lower component
    of u(kappa).  Raises SingularEnergy at the first energy that lies at
    U +/- m of one of the three levels, as core.kinematics does.
    """
    m = cfg.m
    levels = [cfg.potential(region) for region in _LEVELS]
    _reject_singular(e, levels, cfg)
    xp = np if isinstance(e, np.ndarray) else cmath
    # factored form keeps the difference of squares accurate near |E - U| = m
    kappas = [xp.sqrt((m - (e - u)) * (m + (e - u)) + 0j) for u in levels]
    # m + (E - U), not (m + E) - U, keeps the slope accurate near E = U - m
    return [(k, k / (m + (e - u))) for u, k in zip(levels, kappas)]


def _edges(cfg: PotentialConfig) -> tuple[float, float, float, float]:
    """Interface positions, left to right; interface i joins regions i and i + 1."""
    return (-cfg.a, -cfg.a_minus, cfg.a_minus, cfg.a)


def _references(edges: tuple[float, ...]) -> list[tuple[float, float]]:
    """(left, right) reference points of each region's B and A waves, left to right.

    A finite region references A at its right edge and B at its left one;
    the two outside regions keep x = 0, the phase convention of t and r.
    """
    return [(0.0, 0.0), *zip(edges, edges[1:]), (0.0, 0.0)]


def _system(e, cfg: PotentialConfig, xp) -> tuple[np.ndarray, np.ndarray]:
    """Matching matrix and right-hand side at E, with xp = cmath or numpy.

    Shapes (8, 8) and (8,) for a float, (n, 8, 8) and (n, 8) for n
    energies.  Unknown ordering is (B1, A2, B2, A3, B3, A4, B4, A5): A
    and B of region r = 0..4 sit in columns 2r - 1 and 2r.  Rows come in
    pairs, upper then lower spinor component, one pair per interface.
    """
    waves = _waves(e, cfg)
    edges = _edges(cfg)
    references = _references(edges)
    weights = {}  # (level, signed offset) -> its exponential, each computed once
    mat = np.zeros(np.shape(e) + (8, 8), dtype=complex)
    rhs = np.zeros(np.shape(e) + (8,), dtype=complex)
    for i, x in enumerate(edges):
        row = 2 * i
        for region in (i, i + 1):
            level = _LEVEL_OF[region]
            k, s = waves[level]
            left, right = references[region]
            # A e^{kappa (x - right)} u(kappa), then B e^{-kappa (x - left)} u(-kappa)
            for col, offset, slope in ((2 * region - 1, x - right, s),
                                       (2 * region, left - x, -s)):
                if col == 8:
                    continue  # B5 = 0
                key = (level, offset)
                if key not in weights:
                    weights[key] = xp.exp(k * offset) if offset else 1.0
                w = weights[key]
                if region > i:
                    w = -w  # the right-hand region's side of the equation
                if col < 0:  # A1 = 1 moves to the right-hand side
                    rhs[..., row] = -w
                    rhs[..., row + 1] = rhs[..., row] * slope
                else:
                    mat[..., row, col] = w
                    mat[..., row + 1, col] = w * slope
    return mat, rhs


def _reject_residual(e: float, residual: float) -> None:
    if not residual < RESIDUAL_LIMIT:
        raise SingularSystem(
            f"boundary matching at E = {e!r} left relative residual {residual:.3e}"
        )


def _solve_stack(e: np.ndarray, cfg: PotentialConfig) -> tuple[np.ndarray, np.ndarray]:
    """Solution vectors (n, 8) and relative residuals (n,) at n energies."""
    # at a scale m far from 1 the entries overflow; the residual and
    # LinAlgError checks decide, so numpy's warnings stay off
    with np.errstate(all="ignore"):
        mat, rhs = _system(e, cfg, np)
        try:
            v = np.linalg.solve(mat, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError:
            # the stack fails as a whole; energy by energy names the first bad one
            for x in e.tolist():
                solve_amplitudes(x, cfg)
            raise SingularSystem(
                f"boundary matching failed for E in [{float(e.min())!r}, {float(e.max())!r}]"
            ) from None
        residual = (np.linalg.norm((mat @ v[..., None])[..., 0] - rhs, axis=-1)
                    / np.linalg.norm(rhs, axis=-1))
    miss = ~(residual < RESIDUAL_LIMIT)
    if miss.any():
        j = int(miss.argmax())
        _reject_residual(float(e[j]), float(residual[j]))
    return v, residual


def solve_amplitudes(e: float | np.ndarray, cfg: PotentialConfig) -> AmplitudeSet:
    """Solve the boundary-matching system at energy E, or at each energy of an array.

    Raises SingularEnergy where a region's wave vector vanishes and
    SingularSystem where the system is singular or its solution misses
    RESIDUAL_LIMIT; for an array, at the first such energy.
    """
    if isinstance(e, np.ndarray):
        v = np.empty(e.shape + (8,), dtype=complex)
        residual = np.empty(e.shape)
        for lo in range(0, e.size, _CHUNK):
            part = slice(lo, lo + _CHUNK)
            v[part], residual[part] = _solve_stack(e[part], cfg)
        one, zero = np.ones(e.shape, dtype=complex), np.zeros(e.shape, dtype=complex)
    else:
        mat, rhs = _system(e, cfg, cmath)
        try:
            v = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"boundary matching failed at E = {e!r}: {exc}") from None
        residual = float(np.linalg.norm(mat @ v - rhs) / np.linalg.norm(rhs))
        _reject_residual(e, residual)
        one, zero = 1.0 + 0.0j, 0.0 + 0.0j
    return AmplitudeSet(a=(one, *v.T[1::2]), b=(*v.T[0::2], zero), residual=residual)


def wavefunction_profile(e: float, cfg: PotentialConfig,
                         xs: "np.ndarray | list[float]") -> list[SpinorSample]:
    """Matched spinor wavefunction sampled at the given positions."""
    amps = solve_amplitudes(e, cfg)
    waves = _waves(e, cfg)
    edges = _edges(cfg)
    references = _references(edges)
    out = []
    for x in xs:
        x = float(x)
        # interface points go to the inner region; continuity makes the
        # choice irrelevant up to the matching residual
        idx = bisect_right(edges, x) if x < 0 else bisect_left(edges, x)
        kappa, s = waves[_LEVEL_OF[idx]]
        left, right = references[idx]
        ep = cmath.exp(kappa * (x - right))
        em = cmath.exp(kappa * (left - x))
        a_amp, b_amp = amps.a[idx], amps.b[idx]
        out.append(
            SpinorSample(
                x=x,
                psi_plus=a_amp * ep + b_amp * em,
                psi_minus=a_amp * s * ep - b_amp * s * em,
            )
        )
    return out
