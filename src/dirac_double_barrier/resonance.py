"""Transmission-resonance search: real roots of M21(E), and their widths.

Full transmission |T|^2 = 1 happens exactly where the off-diagonal
element of the full transfer matrix vanishes.  On the real energy axis
M21 = i f(E) with f real (the real part is roundoff, below 1e-12 of
|M11|), so the resonances are the roots of f = Im M21, the one function
the search scans.  Every value it reads comes off one checked bounded
walk (transfer._checked_walk, no product, no outside phase): M21 = b/tau.
The resonances are spaced by the waves' round-trip phase, not by the
energy, and crowd where a wave number goes to 0, as at the floor's
thresholds v_minus +/- m on wide floors.  So the search evaluates f on a
grid over a zone that is uniform in that phase and in E (_phase_grid), in
array walks of at most _BLOCK energies, whose temporaries the allocator
keeps where a whole 4,000-point grid's are handed back and faulted in
again every scan.  It refines each grid cell where f changes sign on the
scalar walk with Brent's method, carried here as a port of scipy's
brentq.  Two roots in one cell show no sign change there, so roots
closer than the grid spacing can be lost without a WARNING.  A root is
kept where
|M21| < 1e-8 or |b| < 1e-10, its residual in the walk's own scale:
under thick barriers |tau| is tiny across the whole peak, so
|M21| = |b|/|tau| is ill-conditioned there while |b| stays small.

The widths are read off the same scan.  |T|^2 = 1/(1 + f^2), so a
peak's half-maximum crossings are where |f| crosses 1, bracketed on the
grid and refined with brentq.  A zone's refinement, gate and crossings
read one memoised scalar evaluation per energy, (M21, |b|) (_Walk).
_search is one zone's whole search: scan (_scan), refinement, gate and
widths (_widths); attach_widths runs only the scan and the widths.  Each
zone logs a DEBUG record of its scan and one of its widths, and a WARNING
for every candidate or root it drops and every width it cannot resolve.
"""

from __future__ import annotations

import cmath
import logging
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .core import (EVAL_MARGIN, PotentialConfig, Zone, _nudge_in_place, screen,
                   zone_interval)
from .defaults import GRID_POINTS_PER_ZONE
from .errors import NumericalOverflow
from .transfer import _checked_walk
# unused here, but the benchmark tracer (perfbench/tracing.py) wraps the
# names resonance.full_matrix and resonance.scatter, so they stay bound
from .transfer import full_matrix, scatter  # noqa: F401

log = logging.getLogger(__name__)

#: Default bounded zones searched when the caller does not choose.
DEFAULT_ZONES = (Zone.LOWER_KLEIN, Zone.HIGHER_KLEIN, Zone.CONVENTIONAL)

#: Span above the last resonance of the open top zone that its right
#: half-maximum crossing is looked for in, in units of the mass.
_OPEN_ZONE_SPAN = 4.0

#: Scan energies whose array |Im M21| lies this close to 1 (|T|^2 within
#: 1e-9 of 1/2) are decided by the scalar walk, which refines the
#: crossing.  numpy's array kernels and cmath's scalar ones round
#: differently, the more so the sharper the peak: within two widths of
#: each peak their |M21|^2 differ by at most 1.6e-13 on the reference
#: potential, 8.4e-12 at a_plus = 5 and 3.9e-10 at a_plus = 7.
_HALF_BAND = 2e-9

#: Brent's xtol for resonance roots and half-maximum crossings, as a
#: fraction of the mass.
_REFINE_TOLERANCE = 1e-12

#: A refined root counts as a resonance where |M21| is below
#: _RESIDUAL_ACCEPT, or where |b| is below _WALK_ACCEPT.
_RESIDUAL_ACCEPT = 1e-8
_WALK_ACCEPT = 1e-10

#: Most energies per array walk of the scan (_im_m21), so the default
#: 2,000-point scan is one walk.  One 4,000-energy walk makes 64 kB complex
#: temporaries, which the allocator hands back after every scan and the
#: next faults in again; blocks of 2048 make 32 kB ones that stay in the
#: heap.  1024 faults none either, but scanned ~15% slower.
_BLOCK = 2048

#: Fewest energies the scan grid's phase is summed over (_phase_grid), so
#: that a grid of a few dozen points still follows the phase.
_PHASE_FLOOR = 64

#: Brent defaults, as in scipy.optimize.brentq.
_BRENT_RTOL = 4.0 * sys.float_info.epsilon
_BRENT_MAXITER = 100


def brentq(f, a: float, b: float, xtol: float = 2e-12,
           maxiter: int = _BRENT_MAXITER) -> float:
    """Root of f in [a, b] by Brent's method (Brent 1973, ch. 4).

    A port of scipy.optimize.brentq (its C kernel brentq.c) at scipy's
    default rtol: the same steps in the same floating-point order, so
    the same root to the bit.  Converged means f = 0 or a bracket
    narrower than xtol + 4 eps |x|.  Raises ValueError when f(a) and f(b)
    have the same sign or f returns NaN, RuntimeError after maxiter
    steps.
    """

    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"f({x!r}) is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:
                    # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:
                    # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = (-fcur * (fblk * dblk - fpre * dpre)
                            / (dblk * dpre * (fblk - fpre)))
            except ZeroDivisionError:
                # C divides to inf or nan there, which fails the test below
                stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Brent's method did not converge in {maxiter} steps")


@dataclass(frozen=True)
class SearchSettings:
    """The one search knob: scan points per zone.

    It sets the grid scan (Im M21 on the bounded walk), placed evenly in
    the waves' phase and the energy (_phase_grid), which brackets both the
    roots and the half-maximum crossings of the widths, and the open top
    zone's step past e_max (the scan's mean spacing) and most energies per
    array call there.  Roots and crossings are refined on the scalar
    walk, with Brent's tolerance and the gate fixed, _REFINE_TOLERANCE,
    _RESIDUAL_ACCEPT and _WALK_ACCEPT.
    """

    grid_points_per_zone: int = GRID_POINTS_PER_ZONE

    def __post_init__(self):
        if self.grid_points_per_zone < 16:
            raise ValueError(
                f"grid_points_per_zone must be at least 16, got {self.grid_points_per_zone}"
            )


@dataclass(frozen=True)
class Resonance:
    """A refined full-transmission energy."""

    energy: float
    zone: Zone
    residual: float
    level: int
    fwhm: float | None = None


class _Walk(dict):
    """The scalar walk at cfg, memoised: energy -> (M21, |b|).

    M21 = b/tau = R/T, as a and the outside phase cancel.  A new energy
    raises NumericalOverflow where b/tau is not finite, as once tau
    underflows on wide barriers.  Nothing is screened: every energy lies
    in one zone's screened grid or between two of its energies, so it is
    no U +/- m, and the walk is regular at v_minus, v_plus.
    """

    def __init__(self, cfg: PotentialConfig):
        super().__init__()
        self.cfg = cfg

    def __missing__(self, e: float) -> "tuple[complex, float]":
        _, b, tau = _checked_walk(e, self.cfg)
        m21 = b / tau if tau else math.inf
        if not cmath.isfinite(m21):
            raise NumericalOverflow(f"M21 overflowed at E = {e!r}")
        self[e] = value = (m21, abs(b))
        return value


def _im_m21(e: np.ndarray, cfg: PotentialConfig) -> np.ndarray:
    """Im M21 = Im(b/tau) of the checked walk at each energy of an array;
    raises NumericalOverflow at the first energy where it is not finite.

    The walk runs over consecutive blocks of _BLOCK energies, in array
    order, so an error of the walk names the first energy it fails at, as
    one call would.  One energy left over joins the last block: numpy
    multiplies a one-element array in place in its scalar loop, which
    rounds otherwise than the SIMD one an energy of a longer array takes,
    and every longer block reads the bits of one call.
    """
    f = np.empty(e.shape)
    starts = range(0, max(e.size - 1, 1), _BLOCK)
    for start, stop in zip(starts, [*starts[1:], e.size]):
        part = slice(start, stop)
        _, b, tau = _checked_walk(e[part], cfg)
        with np.errstate(all="ignore"):
            f[part] = np.divide(b, tau, out=b).imag
    bad = ~np.isfinite(f)
    if bad.any():
        raise NumericalOverflow(f"M21 overflowed at E = {float(e[bad.argmax()])!r}")
    return f


def _refine_bracket(walk: _Walk, lo: float, hi: float) -> "float | None":
    """Root of Im M21 in [lo, hi] on the scalar walk, an energy it has
    walked, or None where Im M21 has one sign at both ends."""
    try:
        return brentq(lambda e: walk[e][0].imag, lo, hi, xtol=_REFINE_TOLERANCE * walk.cfg.m)
    except ValueError:
        return None


def _phase_grid(cfg: PotentialConfig, lo: float, hi: float, n: int) -> np.ndarray:
    """n energies from lo to hi, evenly spaced in u = (E - lo)/(hi - lo) + phi(E)/phi(hi).

    phi is the arc length of (4 a_minus |k_minus|, 4 a_plus |k_plus|), the
    round-trip phases of floor and barrier, which resonances are spaced
    by; the arc, not the sum, as k_minus rises while k_plus falls in the
    higher Klein zone.  It is summed over max(n // 4, _PHASE_FLOOR)
    uniform energies, on which np.interp inverts u; |k|/m and a m keep it
    scale-free.  The ends are lo and hi exactly.
    """
    fine = np.linspace(lo, hi, max(n // 4, _PHASE_FLOOR))
    arcs = [4.0 * a * cfg.m * np.sqrt(np.abs(((fine - v) / cfg.m) ** 2 - 1.0))
            for a, v in ((cfg.a_minus, cfg.v_minus), (cfg.a_plus, cfg.v_plus))]
    phi = np.r_[0.0, np.cumsum(np.hypot(*np.diff(arcs)))]
    u = (fine - lo) / (hi - lo) + phi / phi[-1]
    return np.interp(np.linspace(0.0, 2.0, n), u, fine)


def _scan(cfg: PotentialConfig, lo: float, hi: float,
          settings: SearchSettings) -> "tuple[_Walk, np.ndarray, np.ndarray]":
    """A zone's scan over [lo, hi]: an empty _Walk, the grid and Im M21 on it."""
    grid = _nudge_in_place(_phase_grid(cfg, lo, hi, settings.grid_points_per_zone), cfg)
    screen(grid, cfg)
    return _Walk(cfg), grid, _im_m21(grid, cfg)


def _open_fence(last: float, cfg: PotentialConfig) -> float:
    """Right fence of the open top zone's last root: _OPEN_ZONE_SPAN m up, one margin in."""
    return last + _OPEN_ZONE_SPAN * cfg.m - EVAL_MARGIN * cfg.m


def _search(cfg: PotentialConfig, zone: Zone, top: float,
            settings: SearchSettings) -> list[Resonance]:
    """Resonances of the zone from one margin above its bottom up to top.

    Each grid cell where the scan's Im M21 changes sign is refined and
    gated; one whose scalar ends keep one sign, as the scalar walk rounds
    otherwise than the array one, is dropped with a WARNING.  The widths
    are read off the same scan (_widths), the open top zone's last one up
    to its _open_fence.
    """
    lo = zone_interval(zone, cfg)[0] + EVAL_MARGIN * cfg.m
    if not top > lo:
        return []
    walk, grid, f = _scan(cfg, lo, top, settings)
    cells = np.flatnonzero(np.signbit(f[:-1]) != np.signbit(f[1:]))
    hits: list[tuple[float, float]] = []
    unsigned = dropped = 0
    for i in cells.tolist():
        left, right = float(grid[i]), float(grid[i + 1])
        root = _refine_bracket(walk, left, right)
        if root is None:
            unsigned += 1
            log.warning("sign change of Im M21 over (%.12g, %.12g) dropped: the scalar "
                        "walk keeps its sign there", left, right)
            continue
        m21, b = walk[root]
        if abs(m21) < _RESIDUAL_ACCEPT or b < _WALK_ACCEPT:
            hits.append((root, abs(m21)))
        else:  # a converged sign change, so most likely a real resonance
            dropped += 1
            log.warning("root at E = %.12g dropped: |M21| = %.3g is not below "
                        "residual_accept = %g, nor |b| = %.3g below %g", root, abs(m21),
                        _RESIDUAL_ACCEPT, b, _WALK_ACCEPT)
    log.debug("scan of (%.9g, %.9g): %d grid points, %d sign changes refined, "
              "%d roots accepted, %d dropped where the scalar walk keeps its sign, "
              "%d dropped by the residual gate, %d scalar walks", lo, top, grid.size,
              cells.size, len(hits), unsigned, dropped, len(walk))
    roots = [e for e, _ in hits]
    end = _open_fence(roots[-1], cfg) if zone is Zone.ABOVE_BARRIER and roots else None
    widths = _widths(walk, grid, f, roots, end)
    return [Resonance(e, zone, res, lvl, w) for lvl, ((e, res), w) in enumerate(zip(hits, widths))]


def _widths(walk: _Walk, grid: np.ndarray, f: np.ndarray, roots: "list[float]",
            end: "float | None" = None) -> "list[float | None]":
    """fwhm of each root, sorted ascending, read off its zone's scan (grid, f).

    On each side of a root the nearest grid energy with |f| >= 1 brackets
    the crossing with the grid energy next to it toward the root, or with
    the root itself, and brentq refines |Im M21| - 1 on the scalar walk,
    which also decides grid energies whose |f| lies within _HALF_BAND of
    1.  A side is fenced by the neighboring root, the last root's right
    side by end, by default the grid's end, one margin inside the zone
    edge.  Where that right side finds no crossing on the grid and end
    lies past it, as the open top zone's _open_fence may lie past e_max,
    it goes on past the grid's end at the zone's mean spacing, that of a
    uniform scan of as many points from the grid's start to end, as the
    phase grid has no one spacing, in array calls of 32 energies doubling
    up to the grid's size, the last ending at end, so fewer energies than
    the grid has.  fwhm is None where a side finds no crossing before its
    fence; the right side is then not read.  It is None with a WARNING
    where |M21| at the root is not below 1, as at an energy that is no
    peak or under barriers so thick that the root's residual outgrows the
    peak, or where the width is no larger than twice Brent's tolerance.
    """
    cfg = walk.cfg
    xtol = _REFINE_TOLERANCE * cfg.m
    end = float(grid[-1]) if end is None else end
    walked, refined, past = len(walk), 0, 0

    def excess(e: float) -> float:  # crosses 0 where |T|^2 crosses 1/2
        return abs(walk[e][0].imag) - 1.0

    def crossing(e: np.ndarray, f: np.ndarray, inner: float) -> "float | None":
        """Crossing before the first of the energies e, running outward
        from inner, where |Im M21| >= 1, or None where none is."""
        nonlocal refined
        for i in np.flatnonzero(np.abs(f) >= 1.0 - _HALF_BAND):
            outer = float(e[i])
            if abs(abs(f[i]) - 1.0) < _HALF_BAND and excess(outer) < 0.0:
                continue
            near = float(e[i - 1]) if i else inner
            refined += 1
            return brentq(excess, min(near, outer), max(near, outer), xtol=xtol)
        return None

    def fwhm(j: int, root: float) -> "float | None":
        nonlocal past
        residual = abs(walk[root][0])
        if not residual < 1.0:
            log.warning("fwhm at E = %.12g is None: |M21| = %.6g there is not below 1, "
                        "so no peak is resolved there", root, residual)
            return None
        below = slice(np.searchsorted(grid, roots[j - 1]) if j else 0,
                      np.searchsorted(grid, root))
        left = crossing(grid[below][::-1], f[below][::-1], root)
        if left is None:
            return None
        fence = roots[j + 1] if j + 1 < len(roots) else end
        above = slice(np.searchsorted(grid, root, side="right"),
                      np.searchsorted(grid, fence, side="right"))
        right = crossing(grid[above], f[above], root)
        inner, n = float(grid[-1]), 32
        while right is None and inner < fence:
            e = inner + step * np.arange(1, n + 1)
            over = np.searchsorted(e, fence)
            if over < e.size:
                e = e[:over + 1]
                e[over] = fence
            past += e.size
            right = crossing(e, _im_m21(e, cfg), inner)
            inner, n = float(e[-1]), min(2 * n, grid.size)
        if right is None:
            return None
        if not right - left > 2.0 * xtol:
            log.warning("fwhm at E = %.12g is None: its width %.3g is not above twice "
                        "the crossing tolerance %.3g", root, right - left, xtol)
            return None
        return right - left

    step = (max(end, grid[-1]) - grid[0]) / (grid.size - 1)
    out = [fwhm(j, root) for j, root in enumerate(roots)]
    log.debug("widths of (%.9g, %.9g): %d of %d resolved, %d crossings refined, "
              "%d scalar walk evaluations, %d energies evaluated past the scan",
              grid[0], grid[-1], sum(w is not None for w in out), len(out),
              refined, len(walk) - walked, past)
    return out


def find_resonances(cfg: PotentialConfig,
                    zones: "tuple[Zone, ...] | list[Zone] | None" = None,
                    settings: SearchSettings | None = None) -> list[Resonance]:
    """Resonances of the requested bounded zones, sorted by energy.

    Levels number the resonances within each zone from the bottom up.
    The open-ended top zone is excluded here because it needs an explicit
    cutoff; use find_above_barrier for it.
    """
    if settings is None:
        settings = SearchSettings()
    if zones is None:
        zones = DEFAULT_ZONES
    zones = list(dict.fromkeys(zones))
    if not zones:
        raise ValueError("zones must be nonempty")
    if Zone.ABOVE_BARRIER in zones:
        raise ValueError(
            "the above-barrier zone is unbounded; use find_above_barrier "
            "with an explicit e_max"
        )
    found: list[Resonance] = []
    for zone in sorted(zones, key=lambda z: zone_interval(z, cfg)[0]):
        found += _search(cfg, zone, zone_interval(zone, cfg)[1] - EVAL_MARGIN * cfg.m, settings)
    return found


def find_above_barrier(cfg: PotentialConfig, e_max: float,
                       settings: SearchSettings | None = None) -> list[Resonance]:
    """Resonances of the open top zone up to e_max, sorted by energy."""
    if settings is None:
        settings = SearchSettings()
    lo, _ = zone_interval(Zone.ABOVE_BARRIER, cfg)
    if not math.isfinite(e_max):
        raise ValueError(f"e_max must be finite, got {e_max}")
    if not e_max > lo:
        raise ValueError(
            f"e_max must exceed v_plus + m = {lo:g}, got {e_max}"
        )
    return _search(cfg, Zone.ABOVE_BARRIER, e_max, settings)


def attach_widths(resonances: "list[Resonance] | tuple[Resonance, ...]",
                  cfg: PotentialConfig,
                  settings: SearchSettings | None = None) -> list[Resonance]:
    """Copy of the resonances with fwhm filled in, sorted by energy.

    find_resonances and find_above_barrier fill the same fwhm from their
    own scans already.  This reads it for any list of resonances: it scans
    each of their zones as the search does (_scan), the open top zone up
    to its last resonance's _open_fence, and reads every fwhm off that
    scan (_widths), each side fenced by the neighboring resonance of the
    list, so that an overlapping neighbor's shoulder is not mistaken for
    a crossing.  fwhm is None where a side never reaches |T|^2 = 1/2
    before its fence, which is how strongly overlapping broad peaks
    present themselves, and, with a WARNING, where the width cannot be
    resolved, as at an energy that is no peak (_widths).
    """
    if settings is None:
        settings = SearchSettings()
    margin = EVAL_MARGIN * cfg.m
    by_zone: dict[Zone, list[Resonance]] = {}
    for r in resonances:
        by_zone.setdefault(r.zone, []).append(r)
    out: list[Resonance] = []
    for zone, group in by_zone.items():
        group.sort(key=lambda r: r.energy)
        roots = [r.energy for r in group]
        lo, hi = zone_interval(zone, cfg)
        top = hi - margin if math.isfinite(hi) else _open_fence(roots[-1], cfg)
        widths = _widths(*_scan(cfg, lo + margin, top, settings), roots)
        out += [replace(r, fwhm=w) for r, w in zip(group, widths)]
    return sorted(out, key=lambda r: r.energy)
