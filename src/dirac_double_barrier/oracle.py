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

The system is banded: interface i couples only the unknowns of regions
i and i + 1, so each row holds 3 or 4 of the 8 columns, at most two
below the diagonal and two above, 28 nonzeros of 64 (_POSITIONS).

solve_amplitudes takes one energy or a 1-D array of them and builds the
same 28 entries either way.  A float goes through cmath into a dense 8x8
system and one np.linalg.solve.  An array goes through numpy into
(28, n) entries, energies last, and one banded elimination solves all n
systems with partial pivoting, as LAPACK's gbsv does for one (_eliminate).
Its ~240 numpy calls on (n,) arrays take about 0.7 ms on one energy, ten
times the scalar solve, so floats keep LAPACK; on a 1,024-energy stack
they take about 60% of the time of np.linalg.solve, which calls LAPACK
once per matrix.  Arrays are solved _CHUNK energies at a time, because
the entries, the eliminated rows and the residual's temporaries take
about 1.3 kB per energy (the dense stack and its LAPACK solve took
1.7 kB): unsplit, the 10,000 energies of a default verify run would add
some 13 MB, a third, to its peak memory.
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

#: (row, column) of each nonzero of the matching matrix, in the order
#: _system builds them: interface i fills rows 2i and 2i + 1 in the
#: columns of regions i and i + 1, those of A1 and B5 excepted.
_POSITIONS = tuple((row, col) for i in range(4)
                   for col in range(max(2 * i - 1, 0), min(2 * i + 3, 8))
                   for row in (2 * i, 2 * i + 1))
_ROWS, _COLS = zip(*_POSITIONS)


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
    """Nonzero entries of the matching matrix and its right-hand side at E.

    xp = cmath or numpy.  The entries come in the order of _POSITIONS and
    the right-hand side's are its rows 0 and 1, energies last: shapes
    (28,) and (2,) for a float, (28, n) and (2, n) for n energies.
    Unknown ordering is (B1, A2, B2, A3, B3, A4, B4, A5): A and B of
    region r = 0..4 sit in columns 2r - 1 and 2r.  Rows come in pairs,
    upper then lower spinor component, one pair per interface.
    """
    waves = _waves(e, cfg)
    edges = _edges(cfg)
    references = _references(edges)
    weights = {}  # (level, signed offset) -> its exponential, each computed once
    entries = np.empty((len(_POSITIONS),) + np.shape(e), dtype=complex)
    rhs = np.empty((2,) + np.shape(e), dtype=complex)
    at = 0  # the next entry of _POSITIONS
    for i, x in enumerate(edges):
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
                    rhs[0] = -w
                    rhs[1] = rhs[0] * slope
                else:
                    entries[at] = w
                    entries[at + 1] = w * slope
                    at += 2
    return entries, rhs


def _reject_residual(e: float, residual: float) -> None:
    if not residual < RESIDUAL_LIMIT:
        raise SingularSystem(
            f"boundary matching at E = {e!r} left relative residual {residual:.3e}"
        )


def _eliminate(entries: np.ndarray, rhs: np.ndarray) -> tuple[list, list]:
    """Unknowns of n banded systems, and the modulus of each pivot.

    Gaussian elimination with partial pivoting inside the band, as
    LAPACK's gbsv: the pivot of column j is the first largest in modulus
    of the rows j..j + 2 that hold column j, and swaps into row j.  Each
    row is a dict column -> (n,) array of the entries that can be
    nonzero, the right-hand side as column 8; the swaps fill U to 3
    columns right of the diagonal.  Every product and sum takes two
    (n,) arrays into a new one, never in place: numpy rounds an in-place
    complex product of one element otherwise than the same entry of a
    longer array, and an energy's result would then depend on the stack
    it is solved in.  (Past 16,384 elements numpy turns temporaries into
    in-place operands itself, one reason _CHUNK stays below that.)
    Returns 8 arrays (n,) each.
    """
    rows = [{} for _ in range(8)]
    for (r, c), v in zip(_POSITIONS, entries):
        rows[r][c] = v
    rows[0][8], rows[1][8] = rhs
    sizes = []
    for j in range(8):
        slots = [s for s in range(j, min(j + 3, 8)) if j in rows[s]]
        cols = sorted(set().union(*(rows[s] for s in slots)))
        pivot = {c: rows[j].get(c, 0.0) for c in cols}
        size = np.abs(pivot[j])
        others = []
        for s in slots[1:]:
            # a later row swaps in where strictly larger: the first largest wins
            row = {c: rows[s].get(c, 0.0) for c in cols}
            other = np.abs(row[j])
            swap = other > size
            size = np.where(swap, other, size)
            pivot, row = ({c: np.where(swap, row[c], pivot[c]) for c in cols},
                          {c: np.where(swap, pivot[c], row[c]) for c in cols})
            others.append((s, row))
        for s, row in others:
            factor = row[j] / pivot[j]
            rows[s] = {c: row[c] - factor * pivot[c] for c in cols[1:]}
        rows[j] = pivot
        sizes.append(size)
    x = [None] * 8
    for j in reversed(range(8)):
        acc = rows[j][8]
        for c in range(j + 1, 8):
            if c in rows[j]:
                acc = acc - rows[j][c] * x[c]
        x[j] = acc / rows[j][j]
    return x, sizes


def _residual(entries: np.ndarray, rhs: np.ndarray, x: list) -> np.ndarray:
    """|A x - b| / |b| per energy, from the assembled entries."""
    ax = [None] * 8
    for (r, c), v in zip(_POSITIONS, entries):
        term = v * x[c]
        ax[r] = term if ax[r] is None else ax[r] + term
    ax[0] = ax[0] - rhs[0]
    ax[1] = ax[1] - rhs[1]
    # summed row by row, as the products, so no energy's sum depends on n
    num = sum(d.real ** 2 + d.imag ** 2 for d in ax)
    den = sum(d.real ** 2 + d.imag ** 2 for d in rhs)
    return np.sqrt(num) / np.sqrt(den)


def _solve_stack(e: np.ndarray, cfg: PotentialConfig) -> tuple[list, np.ndarray]:
    """Unknowns as 8 arrays (n,) and relative residuals (n,) at n energies."""
    # at a scale m far from 1 the entries overflow; the residual decides,
    # so numpy's warnings stay off
    with np.errstate(all="ignore"):
        entries, rhs = _system(e, cfg, np)
        x, sizes = _eliminate(entries, rhs)
        residual = _residual(entries, rhs, x)
    # a zero pivot divides by 0, which leaves the residual inf or NaN
    miss = ~(residual < RESIDUAL_LIMIT)
    if miss.any():
        j = int(miss.argmax())
        if any(size[j] == 0.0 for size in sizes):
            raise SingularSystem(
                f"boundary matching failed at E = {float(e[j])!r}: Singular matrix")
        _reject_residual(float(e[j]), float(residual[j]))
    return x, residual


def solve_amplitudes(e: float | np.ndarray, cfg: PotentialConfig) -> AmplitudeSet:
    """Solve the boundary-matching system at energy E, or at each energy of an array.

    Raises SingularEnergy where a region's wave vector vanishes and
    SingularSystem where the system is singular or its solution misses
    RESIDUAL_LIMIT; for an array, at the first such energy.
    """
    if isinstance(e, np.ndarray):
        v = np.empty((8,) + e.shape, dtype=complex)
        residual = np.empty(e.shape)
        for lo in range(0, e.size, _CHUNK):
            part = slice(lo, lo + _CHUNK)
            v[:, part], residual[part] = _solve_stack(e[part], cfg)
        one, zero = np.ones(e.shape, dtype=complex), np.zeros(e.shape, dtype=complex)
    else:
        entries, head = _system(e, cfg, cmath)
        mat = np.zeros((8, 8), dtype=complex)
        mat[_ROWS, _COLS] = entries
        rhs = np.zeros(8, dtype=complex)
        rhs[:2] = head
        try:
            v = np.linalg.solve(mat, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularSystem(f"boundary matching failed at E = {e!r}: {exc}") from None
        residual = float(np.linalg.norm(mat @ v - rhs) / np.linalg.norm(rhs))
        _reject_residual(e, residual)
        one, zero = 1.0 + 0.0j, 0.0 + 0.0j
    return AmplitudeSet(a=(one, *v[1::2]), b=(*v[0::2], zero), residual=residual)


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
