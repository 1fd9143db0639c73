"""Potential geometry, energy classification and per-region kinematics.

Natural units hbar = c = 1 throughout.  With the default mass m = 1,
energies are read directly in units of m c^2 and lengths in units of the
reduced Compton wavelength 1/m.
"""

from __future__ import annotations

import cmath
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum

from .errors import BoundaryEnergy, ConfigError, SingularEnergy

#: Half-width of the rejection window around the special energies, as
#: a fraction of the mass.
SINGULAR_TOL = 1e-9

#: Distance at which grids and samples keep off the special
#: energies, as a fraction of the mass.
EVAL_MARGIN = 1e-6


class Region(Enum):
    """The three distinct potential levels seen by the spinor."""

    ZERO = "zero"    # outside the structure, V = 0
    PLUS = "plus"    # the two barriers, V = v_plus
    MINUS = "minus"  # the elevated floor between them, V = v_minus


class MatrixRange(Enum):
    """Energy ranges of the paper's three transfer-matrix formula sets."""

    I = "I"      # m < E < v_minus
    II = "II"    # v_minus < E < v_plus
    III = "III"  # E > v_plus


class Zone(Enum):
    """Physical energy zones used for reporting and resonance search."""

    LOWER_KLEIN = "lower-klein"      # (m, v_minus - m)
    GAP_LOWER = "gap-lower"          # (v_minus - m, v_minus + m)
    HIGHER_KLEIN = "higher-klein"    # (v_minus + m, v_plus - m)
    CONVENTIONAL = "conventional"    # (v_plus - m, v_plus + m)
    ABOVE_BARRIER = "above-barrier"  # (v_plus + m, inf)


#: Zones in order of increasing energy.
ZONE_ORDER = (
    Zone.LOWER_KLEIN,
    Zone.GAP_LOWER,
    Zone.HIGHER_KLEIN,
    Zone.CONVENTIONAL,
    Zone.ABOVE_BARRIER,
)


@dataclass(frozen=True)
class PotentialConfig:
    """Double square barrier of height v_plus on a floor of height v_minus.

    The potential is 0 for |x| >= a_plus + a_minus, v_plus on the two
    barriers a_minus < |x| < a_plus + a_minus, and v_minus on the floor
    |x| <= a_minus.  Both steps must be supercritical, which demands
    v_minus > 2 m and v_plus > v_minus + 2 m, and every parameter must be
    finite; construction enforces this, so every instance in circulation
    is valid.

    Scaling the heights by m and the widths by 1/m gives the m = 1
    results at energies times m.  For the reference potential that holds
    in double precision from m = 1e-150 to 1e150.  Far above it the wave
    vectors overflow and the engine raises NumericalOverflow; below it
    they lose digits to subnormal squares, silently, until they underflow
    and it raises NumericalOverflow too.
    """

    v_plus: float
    v_minus: float
    a_plus: float
    a_minus: float
    m: float = 1.0

    def __post_init__(self):
        for name in ("v_plus", "v_minus", "a_plus", "a_minus", "m"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
        if not self.m > 0:
            raise ConfigError(f"m must be positive, got {self.m}")
        if not self.a_plus > 0:
            raise ConfigError(f"a_plus must be positive, got {self.a_plus}")
        if not self.a_minus > 0:
            raise ConfigError(f"a_minus must be positive, got {self.a_minus}")
        if not self.v_minus > 2.0 * self.m:
            raise ConfigError(
                f"v_minus must exceed 2m = {2.0 * self.m:g}, got {self.v_minus}"
            )
        if not self.v_plus > self.v_minus + 2.0 * self.m:
            raise ConfigError(
                f"v_plus must exceed v_minus + 2m = "
                f"{self.v_minus + 2.0 * self.m:g}, got {self.v_plus}"
            )

    @property
    def a(self) -> float:
        """Half-width of the whole structure, a_plus + a_minus."""
        return self.a_plus + self.a_minus

    def potential(self, region: Region) -> float:
        if region is Region.ZERO:
            return 0.0
        if region is Region.PLUS:
            return self.v_plus
        return self.v_minus


@dataclass(frozen=True)
class Kinematics:
    """Wave vector and spinor weights of one region at one energy."""

    k: complex
    alpha: complex
    beta: complex


def special_energies(cfg: PotentialConfig) -> tuple[float, ...]:
    """Energies where the formulas degenerate, in ascending order.

    These are the threshold m, U +/- m of each level, and the matrix
    range edges v_minus and v_plus.
    """
    m, vm, vp = cfg.m, cfg.v_minus, cfg.v_plus
    return (m, vm - m, vm, vm + m, vp - m, vp, vp + m)


def singular_energies(cfg: PotentialConfig) -> list[float]:
    """Energies where some region's wave vector vanishes, sorted ascending.

    These are U +/- m over the three potential levels; E = -m never
    enters since only E > m is admissible.
    """
    s = special_energies(cfg)
    return [s[0], s[1], s[3], s[4], s[6]]


def _is_array(e) -> bool:
    """Whether e is an ndarray.  One exists only once numpy is loaded, so
    a float never makes this module import numpy."""
    np = sys.modules.get("numpy")
    return np is not None and isinstance(e, np.ndarray)


def _span(e: np.ndarray) -> "tuple[float, float]":
    """(min, max) of an array of energies, (inf, -inf) for none.

    A special energy s with s - max >= tol or min - s >= tol lies at least
    tol from every energy, as rounding is monotonic, so the threshold
    screens test only the others: two passes over the array instead of
    three per special energy.  A NaN span fails both tests and so keeps
    them all.
    """
    if not e.size:
        return math.inf, -math.inf
    return e.min(), e.max()


def nudge(e: "float | np.ndarray", cfg: PotentialConfig) -> "float | np.ndarray":
    """Copy of E moved off the special energies.

    An energy closer than EVAL_MARGIN * m to a special energy goes to
    exactly that distance from it, to the side it lies on (up when it
    sits on it).  A float stays a float.
    """
    import numpy as np

    out = _nudge_in_place(np.array(e, dtype=float), cfg)
    return out if isinstance(e, np.ndarray) else float(out)


def _nudge_in_place(out: np.ndarray, cfg: PotentialConfig) -> np.ndarray:
    """nudge on a float array the caller owns: moves its entries, returns it.

    Only the entries between the fences s - margin and s + margin, as
    rounded, take nudge's test.  An entry past a fence lies more than a
    margin from s, so its difference from s rounds to a margin or more
    and fails the test: two boolean passes per special energy in reach,
    and no float temporary of the array's size.
    """
    import numpy as np

    margin = EVAL_MARGIN * cfg.m
    lo, top = _span(out)
    for s in special_energies(cfg):
        # within reach of the span (_span), which a move up to s + margin
        # extends: a later special energy may move that energy again
        if not (s - top >= margin or lo - s >= margin):
            top = max(top, s + margin)
            at = np.flatnonzero((out >= s - margin) & (out <= s + margin))
            if at.size:
                e = out.flat[at]
                near = np.abs(e - s) < margin
                out.flat[at[near]] = np.where(e[near] >= s, s + margin, s - margin)
    return out


def _blocks(n: int, size: int) -> list[slice]:
    """Consecutive slices of size entries over n, in order, at least one.

    One entry left past the last whole block joins that block: numpy
    rounds a one-element array in its scalar loop, otherwise than the SIMD
    one an entry of a longer array takes, so every block of two or more
    reads the bits that one call over all n would.
    """
    starts = range(0, max(n - 1, 1), size)
    return [slice(start, stop) for start, stop in zip(starts, [*starts[1:], n])]


def check_window(cfg: PotentialConfig, e_min: float, e_max: float) -> None:
    """Raise ValueError unless m < e_min < e_max < inf and the window
    leaves each special energy's EVAL_MARGIN band, which nudge empties."""
    if not (math.isfinite(e_min) and math.isfinite(e_max)):
        raise ValueError(f"the energy window must be finite, got ({e_min}, {e_max})")
    if not e_min > cfg.m:
        raise ValueError(
            f"e_min must exceed the threshold m = {cfg.m:g}, got {e_min}"
        )
    if not e_max > e_min:
        raise ValueError("e_max must exceed e_min")
    width = EVAL_MARGIN * cfg.m
    for b in special_energies(cfg):
        if b - width <= e_min and e_max <= b + width:
            raise ValueError(
                f"window ({e_min!r}, {e_max!r}) lies within {width:g} of the "
                f"excluded energy {b:g}; nothing in it can be sampled"
            )


def zone_interval(zone: Zone, cfg: PotentialConfig) -> tuple[float, float]:
    """Open energy interval (lo, hi) covered by the zone.

    The zones lie between consecutive singular energies, the top one
    open above.
    """
    edges = (*singular_energies(cfg), math.inf)
    i = ZONE_ORDER.index(zone)
    return edges[i], edges[i + 1]


def _first_near(e: "float | np.ndarray", table, tol: float,
                floor: float = -math.inf) -> "tuple[float, float | None] | None":
    """(E, s) for the first energy E within tol of an entry s of table, else None.

    e is one energy or a 0-d or 1-D array of them, scanned energy-major: the
    first such energy in array order, then the first entry of table it
    lies near.  An energy at or below floor counts too, with s = None.
    """
    array = _is_array(e)
    bad = e <= floor
    if array:  # only the entries within reach of the span
        lo, hi = _span(e)
        table = [s for s in table if not (s - hi >= tol or lo - s >= tol)]
    for s in table:
        bad |= abs(e - s) < tol
    if array:
        if not bad.any():
            return None
        e = float(e.flat[bad.argmax()])  # flat: a 0-d array too
    elif not bad:
        return None
    if e <= floor:
        return e, None
    return e, next(s for s in table if abs(e - s) < tol)


def _reject_singular(e: "float | np.ndarray", levels, cfg: PotentialConfig) -> None:
    """Raise SingularEnergy at the first energy within the singular
    tolerance of U +/- m of one of the levels U."""
    tol = SINGULAR_TOL * cfg.m
    hit = _first_near(e, [s for u in levels for s in (u - cfg.m, u + cfg.m)], tol)
    if hit is not None:
        e, s = hit
        raise SingularEnergy(
            e, f"E = {e!r} lies within {tol:g} of the singular energy {s:g}"
        )


def kinematics(e: float, region: Region, cfg: PotentialConfig) -> Kinematics:
    """Wave vector and spinor weights of the region, principal branches.

    k = sqrt(m^2 - (E-U)^2) is real and positive where |E - U| < m
    (evanescent solutions), pure imaginary with positive imaginary part
    where |E - U| > m (oscillatory solutions).  The weights
    alpha = sqrt((m - d)/(m + d)) and beta = sqrt((m + d)/(m - d)), with
    d = E - U, have the product +1 where the solutions are evanescent and
    -1 where they are oscillatory.
    """
    u = cfg.potential(region)
    _reject_singular(e, (u,), cfg)
    d = e - u
    m = cfg.m
    # factored form keeps the difference of squares accurate near |d| = m
    return Kinematics(k=cmath.sqrt((m - d) * (m + d)),
                      alpha=cmath.sqrt((m - d) / (m + d)),
                      beta=cmath.sqrt((m + d) / (m - d)))


#: Matrix range and zone between consecutive special energies past m:
#: ranges II and III start at v_minus and v_plus, zones 2..5 at U +/- m.
_RANGES = (MatrixRange.I,) * 2 + (MatrixRange.II,) * 3 + (MatrixRange.III,) * 2
_ZONES = (Zone.LOWER_KLEIN, Zone.GAP_LOWER, Zone.GAP_LOWER, Zone.HIGHER_KLEIN,
          Zone.CONVENTIONAL, Zone.CONVENTIONAL, Zone.ABOVE_BARRIER)


def screen(e: "float | np.ndarray", cfg: PotentialConfig) -> None:
    """Raise BoundaryEnergy unless every energy is admissible.

    Inadmissible is E at or below threshold, or within the singular
    tolerance of any range or zone boundary.  For an array, raises at
    the first such energy, with the message that energy alone gets.
    """
    tol = SINGULAR_TOL * cfg.m
    # the threshold, the first special energy, is the floor
    hit = _first_near(e, special_energies(cfg)[1:], tol, floor=cfg.m + tol)
    if hit is None:
        return
    e, b = hit
    if b is None:
        raise BoundaryEnergy(
            e, f"E = {e!r} is at or below the scattering threshold m = {cfg.m:g}"
        )
    raise BoundaryEnergy(e, f"E = {e!r} lies within {tol:g} of the boundary energy {b:g}")


def classify(e: "float | np.ndarray",
             cfg: PotentialConfig) -> "tuple[MatrixRange, Zone] | tuple[np.ndarray, np.ndarray]":
    """Matrix range and zone containing E.

    For a 1-D array of energies, returns two object arrays with one
    MatrixRange and one Zone per energy.  Raises BoundaryEnergy where
    screen does.
    """
    screen(e, cfg)
    cuts = special_energies(cfg)[1:]
    if _is_array(e):
        import numpy as np

        i = np.searchsorted(cuts, e, side="right")
        return np.array(_RANGES, dtype=object)[i], np.array(_ZONES, dtype=object)[i]
    i = bisect_right(cuts, e)
    return _RANGES[i], _ZONES[i]
