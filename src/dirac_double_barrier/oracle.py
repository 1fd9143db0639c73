"""Independent scattering solver by direct boundary matching.

Writes the general solution in each of the five constant-potential
regions on the unnormalized spinor basis

    u(kappa) = (1, kappa / (m + E - U))^T,  weights A e^{kappa x} + B e^{-kappa x},

and imposes continuity of both components at the four interfaces.  With
unit incidence from the left (A1 = 1) and nothing returning on the right
(B5 = 0) that leaves an 8x8 complex linear system.  This basis and
bookkeeping differ deliberately from the ratio form behind the transfer
matrices, so the two routes to T and R share no transcription and can
cross-check each other; nothing here comes from transfer.py.

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
from dataclasses import dataclass

import numpy as np

from .core import SINGULAR_TOL, PotentialConfig, Region, wave_vector
from .errors import SingularSystem

#: Relative residual above which the linear solve is reported as singular.
RESIDUAL_LIMIT = 1e-10

#: Energies per stacked solve, which bounds the memory an array call holds.
_CHUNK = 1024

# region index -> potential region, left to right
_REGIONS = (Region.ZERO, Region.PLUS, Region.MINUS, Region.PLUS, Region.ZERO)

#: The distinct regions, in the order _waves returns them.
_LEVELS = (Region.ZERO, Region.PLUS, Region.MINUS)


@dataclass(frozen=True)
class AmplitudeSet:
    """Right- and left-moving amplitudes (A, B) per region, left to right.

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


def _slope(e, u: float, kappa, m: float):
    # lower-component weight of the basis spinor u(kappa)
    return kappa / (m + e - u)


def _waves(e, cfg: PotentialConfig) -> list:
    """(kappa, slope) of the outside, barrier and floor regions, in that order.

    A float goes through core.wave_vector.  An array takes the same
    expression through numpy, once a screen has raised SingularEnergy at
    its first energy that a float would be rejected at.
    """
    m = cfg.m
    levels = [cfg.potential(region) for region in _LEVELS]
    if isinstance(e, np.ndarray):
        near = np.zeros(e.shape, dtype=bool)
        for u in levels:
            for s in (u - m, u + m):
                near |= np.abs(e - s) < SINGULAR_TOL * m
        if near.any():
            _waves(float(e[near.argmax()]), cfg)  # raises, as for a float
        kappas = [np.sqrt((m - (e - u)) * (m + (e - u)) + 0j) for u in levels]
    else:
        kappas = [wave_vector(e, region, cfg) for region in _LEVELS]
    return [(k, _slope(e, u, k, m)) for u, k in zip(levels, kappas)]


def _system(e, cfg: PotentialConfig, xp) -> tuple[np.ndarray, np.ndarray]:
    """Matching matrix and right-hand side at E, with xp = cmath or numpy.

    Shapes (8, 8) and (8,) for a float, (n, 8, 8) and (n, 8) for n
    energies.  Unknown ordering is (B1, A2, B2, A3, B3, A4, B4, A5);
    rows come in pairs, upper then lower spinor component, at x = -a,
    -a_minus, a_minus, a.
    """
    (k0, s0), (kp, sp), (km, sm) = _waves(e, cfg)
    a_out, a_in = cfg.a, cfg.a_minus
    mat = np.zeros(np.shape(e) + (8, 8), dtype=complex)
    rhs = np.zeros(np.shape(e) + (8,), dtype=complex)

    def put(row: int, col: int, weight, slope) -> None:
        mat[..., row, col] = weight
        mat[..., row + 1, col] = weight * slope

    # x = -a: region 1 meets region 2
    put(0, 0, xp.exp(k0 * a_out), -s0)               # B1 e^{-k0 x}
    put(0, 1, -xp.exp(-kp * a_out), sp)              # A2 e^{kp x}
    put(0, 2, -xp.exp(kp * a_out), -sp)              # B2 e^{-kp x}
    rhs[..., 0] = -xp.exp(-k0 * a_out)               # A1 e^{k0 x}, A1 = 1
    rhs[..., 1] = rhs[..., 0] * s0

    # x = -a_minus: region 2 meets region 3
    put(2, 1, xp.exp(-kp * a_in), sp)
    put(2, 2, xp.exp(kp * a_in), -sp)
    put(2, 3, -xp.exp(-km * a_in), sm)
    put(2, 4, -xp.exp(km * a_in), -sm)

    # x = +a_minus: region 3 meets region 4
    put(4, 3, xp.exp(km * a_in), sm)
    put(4, 4, xp.exp(-km * a_in), -sm)
    put(4, 5, -xp.exp(kp * a_in), sp)
    put(4, 6, -xp.exp(-kp * a_in), -sp)

    # x = +a: region 4 meets region 5
    put(6, 5, xp.exp(kp * a_out), sp)
    put(6, 6, xp.exp(-kp * a_out), -sp)
    put(6, 7, -xp.exp(k0 * a_out), s0)               # A5 e^{k0 x}
    return mat, rhs


def _reject_residual(e: float, residual: float) -> None:
    if not residual < RESIDUAL_LIMIT:
        raise SingularSystem(
            f"boundary matching at E = {e!r} left relative residual {residual:.3e}"
        )


def _solve_stack(e: np.ndarray, cfg: PotentialConfig) -> tuple[np.ndarray, np.ndarray]:
    """Solution vectors (n, 8) and relative residuals (n,) at n energies."""
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


def _region_index(x: float, cfg: PotentialConfig) -> int:
    # interface points go to the inner region; continuity makes the
    # choice irrelevant up to the matching residual
    if x < -cfg.a:
        return 0
    if x < -cfg.a_minus:
        return 1
    if x <= cfg.a_minus:
        return 2
    if x <= cfg.a:
        return 3
    return 4


def wavefunction_profile(e: float, cfg: PotentialConfig,
                         xs: "np.ndarray | list[float]") -> list[SpinorSample]:
    """Matched spinor wavefunction sampled at the given positions."""
    amps = solve_amplitudes(e, cfg)
    k_by_region = {
        Region.ZERO: wave_vector(e, Region.ZERO, cfg),
        Region.PLUS: wave_vector(e, Region.PLUS, cfg),
        Region.MINUS: wave_vector(e, Region.MINUS, cfg),
    }
    out = []
    for x in xs:
        idx = _region_index(float(x), cfg)
        region = _REGIONS[idx]
        u = cfg.potential(region)
        kappa = k_by_region[region]
        s = _slope(e, u, kappa, cfg.m)
        ep = cmath.exp(kappa * float(x))
        em = 1.0 / ep
        a_amp, b_amp = amps.a[idx], amps.b[idx]
        out.append(
            SpinorSample(
                x=float(x),
                psi_plus=a_amp * ep + b_amp * em,
                psi_minus=a_amp * s * ep - b_amp * s * em,
            )
        )
    return out
