"""Transmission-resonance search: real roots of M21(E), and their widths.

Full transmission |T|^2 = 1 happens exactly where the off-diagonal
element of the full transfer matrix vanishes.  On the real energy axis
M21 = i f(E) with f real (the real part is roundoff, below 1e-12 of
|M11|), so the resonances are the roots of f = Im M21.  Every value the
search reads comes off one checked bounded walk (transfer._checked_walk,
no matrix product), which raises where the walk overflows or
degenerates: M21 = b/tau and |M21|^2 = |b|^2/|tau|^2.  The search scans
|M21|^2 on a uniform grid over a zone in one array call, takes interior
local minima as brackets, and refines each bracket on Im M21 one energy
at a time with Brent's method, carried here as a port of scipy's brentq.

The widths are read off the same scan.  |T|^2 = 1/(1 + |M21|^2), so a
peak's half-maximum crossings are where |M21|^2 crosses 1: on each side
of a root the nearest grid energy with |M21|^2 >= 1 brackets one, and
brentq refines it on log|M21| = log|b| - log|tau|, one energy at a time.
Only the last root of the open top zone can need energies past the
scan's end.  Each zone logs two DEBUG records: one of its scan (grid
points, local minima, brackets refined, roots accepted, rejected,
dropped and merged, and Brent's evaluations) and one of its widths
(widths resolved, crossings refined, scalar walks, and energies
evaluated past the scan).
"""

from __future__ import annotations

import cmath
import logging
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .core import EVAL_MARGIN, PotentialConfig, Zone, nudge, screen, zone_interval
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

#: Scan energies whose array |M21|^2 lies this close to 1 (|T|^2 within
#: 1e-9 of 1/2) are decided by the scalar walk, which refines the
#: crossing.  numpy's array kernels and cmath's scalar ones round
#: differently, the more so the sharper the peak: within two widths of
#: each peak, where |M21|^2 is within 1/2 of 1, they differ by at most
#: 1.6e-13 on the reference potential, 8.4e-12 at a_plus = 5 and 3.9e-10
#: at a_plus = 7.
_HALF_BAND = 4e-9

#: Brent's xtol for resonance roots and half-maximum crossings, as a
#: fraction of the mass.
_REFINE_TOLERANCE = 1e-12

#: A refined root counts as a resonance only where |M21| is below this.
_RESIDUAL_ACCEPT = 1e-8

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

    It sets the grid scan (|M21|^2 on the bounded walk), which brackets
    both the roots and the half-maximum crossings of the widths, and the
    open top zone's step past e_max (the scan spacing) and most energies
    per array call there.  Roots and crossings are refined on the scalar
    walk, with Brent's tolerance and the |M21| gate fixed,
    _REFINE_TOLERANCE and _RESIDUAL_ACCEPT.
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


def _refine_bracket(cfg: PotentialConfig, lo: float,
                    hi: float) -> "tuple[float, float, int] | None":
    """Root of M21 inside (lo, hi) as (energy, residual, evaluations).

    None where Im M21 keeps its sign over (lo, hi), so the bracket holds
    no root.

    M21 = b/tau comes off the checked walk, since M21 = R/T and the
    walk's a and phase cancel from that ratio; it raises
    NumericalOverflow where b/tau is not finite, as once tau underflows
    on wide barriers.  brentq returns an energy it has evaluated, so the
    residual |M21| is read from the values it saw rather than computed
    again; it evaluates no energy twice, so those values also count its
    evaluations.  Nothing is screened: (lo, hi) lies in one zone's screened
    grid, so it holds no U +/- m, and the walk is regular at v_minus, v_plus.
    """
    seen: dict[float, complex] = {}

    def im_m21(e: float) -> float:
        _, b, tau, _ = _checked_walk(e, cfg)
        value = b / tau if tau else math.inf
        if not cmath.isfinite(value):
            raise NumericalOverflow(f"M21 overflowed at E = {e!r}")
        seen[e] = value
        return value.imag

    try:
        root = brentq(im_m21, lo, hi, xtol=_REFINE_TOLERANCE * cfg.m)
    except ValueError:
        return None
    return root, abs(seen[root]), len(seen)


def _scan_record(cfg: PotentialConfig, lo: float, hi: float,
                 settings: SearchSettings) -> "tuple[np.ndarray, np.ndarray]":
    """A zone's scan: its grid over [lo, hi] and |M21|^2 at each grid energy."""
    grid = nudge(np.linspace(lo, hi, settings.grid_points_per_zone), cfg)
    screen(grid, cfg)
    _, b, tau, _ = _checked_walk(grid, cfg)
    with np.errstate(all="ignore"):
        g = np.abs(b) ** 2 / np.abs(tau) ** 2  # |M21|^2 = |R|^2/|T|^2
    bad = ~np.isfinite(g)
    if bad.any():
        raise NumericalOverflow(f"|M21|^2 overflowed at E = {float(grid[bad.argmax()])!r}")
    return grid, g


def _scan_interval(cfg: PotentialConfig, lo: float, hi: float, settings: SearchSettings,
                   open_zone: bool = False) -> "list[tuple[float, float, float | None]]":
    """(energy, residual, fwhm) for the roots of M21 in (lo, hi).

    The widths are read off the same scan (_widths); open_zone says that
    (lo, hi) is the open top zone cut at e_max.
    """
    if not hi > lo:
        return []
    grid, g = _scan_record(cfg, lo, hi, settings)
    minima = np.flatnonzero((g[1:-1] < g[:-2]) & (g[1:-1] < g[2:])) + 1
    hits: list[tuple[float, float]] = []
    rejected = dropped = merged = evaluations = 0
    for i in minima:
        left, right = float(grid[i - 1]), float(grid[i + 1])
        refined = _refine_bracket(cfg, left, right)
        if refined is None:
            log.debug("bracket near E = %.9g rejected: Im M21 keeps its sign over "
                      "(%.9g, %.9g)", grid[i], left, right)
            rejected += 1
            evaluations += 2  # brentq compares the signs at both ends first
            continue
        root, residual, n = refined
        evaluations += n
        if residual < _RESIDUAL_ACCEPT:
            hits.append((root, residual))
        else:  # a converged sign change, so most likely a real resonance
            dropped += 1
            log.warning("root at E = %.12g dropped: |M21| = %.3g is not below "
                        "residual_accept = %g", root, residual, _RESIDUAL_ACCEPT)
    hits.sort(key=lambda h: h[0])
    # adjacent brackets occasionally converge to the same root
    deduped: list[tuple[float, float]] = []
    gap = max(10.0 * _REFINE_TOLERANCE, 1e-10) * cfg.m
    for h in hits:
        if deduped and abs(h[0] - deduped[-1][0]) < gap:
            merged += 1
            if h[1] < deduped[-1][1]:
                deduped[-1] = h
            continue
        deduped.append(h)
    log.debug("scan of (%.9g, %.9g): %d grid points, %d local minima refined as "
              "brackets, %d roots accepted, %d rejected where Im M21 keeps its sign, "
              "%d dropped by the residual gate, %d merged as duplicates, "
              "%d Brent evaluations", lo, hi, grid.size, minima.size, len(deduped),
              rejected, dropped, merged, evaluations)
    widths = _widths(cfg, grid, g, [e for e, _ in deduped], settings, open_zone)
    return [(e, res, w) for (e, res), w in zip(deduped, widths)]


def _widths(cfg: PotentialConfig, grid: np.ndarray, g: np.ndarray, roots: "list[float]",
            settings: SearchSettings, open_zone: bool) -> "list[float | None]":
    """fwhm of each root, sorted ascending, read off its zone's scan (grid, g).

    |T|^2 = 1/(1 + |M21|^2), so the half-maximum crossings are where
    |M21|^2 crosses 1.  On each side of a root the nearest grid energy
    with |M21|^2 >= 1 brackets the crossing with the grid energy next to
    it toward the root, or with the root itself, and brentq refines it on
    log|b| - log|tau| of the scalar walk.  Grid energies whose |M21|^2
    lies within _HALF_BAND of 1 are decided by that scalar walk.  A side
    is fenced by the neighboring root, else by the grid's end, one margin
    inside the zone edge.  In the open top zone the last root is fenced
    _OPEN_ZONE_SPAN m above it, one margin in; where its right side finds
    no crossing on the grid, it goes on past the grid's end at the scan
    spacing, in array calls of 32 energies doubling up to
    grid_points_per_zone, and the last of them is the fence itself.
    fwhm is None where a side finds no crossing before its fence; the
    right side is then not read.  Raises ValueError where |M21| at a root
    is not below 1, since no peak lies there.
    """
    if open_zone and roots:
        end = roots[-1] + _OPEN_ZONE_SPAN * cfg.m - EVAL_MARGIN * cfg.m
    else:
        end = float(grid[-1])
    seen: dict[float, float] = {}
    refined = past = 0

    def log_m21(e: float) -> float:
        """log |M21| at E, which crosses 0 where |T|^2 crosses 1/2."""
        if e not in seen:
            _, b, tau, _ = _checked_walk(e, cfg)
            seen[e] = math.log(abs(b)) - math.log(abs(tau))
        return seen[e]

    def crossing(e: np.ndarray, g: np.ndarray, inner: float) -> "float | None":
        """Crossing before the first of the energies e, running outward
        from inner, where |M21|^2 >= 1, or None where none is."""
        nonlocal refined
        for i in np.flatnonzero(g >= 1.0 - _HALF_BAND):
            outer = float(e[i])
            if abs(g[i] - 1.0) < _HALF_BAND and log_m21(outer) < 0.0:
                continue
            near = float(e[i - 1]) if i else inner
            if near == inner and not log_m21(inner) < 0.0:
                raise ValueError(f"|M21| = {math.exp(log_m21(inner)):.6g} at E = {inner!r} "
                                 f"is not below 1, so no peak lies there")
            refined += 1
            return brentq(log_m21, min(near, outer), max(near, outer),
                          xtol=_REFINE_TOLERANCE * cfg.m)
        return None

    step = (grid[-1] - grid[0]) / (grid.size - 1)
    out: list[float | None] = []
    for j, root in enumerate(roots):
        below = slice(np.searchsorted(grid, roots[j - 1]) if j else 0,
                      np.searchsorted(grid, root))
        left = crossing(grid[below][::-1], g[below][::-1], root)
        if left is None:
            out.append(None)
            continue
        fence = roots[j + 1] if j + 1 < len(roots) else end
        above = slice(np.searchsorted(grid, root, side="right"),
                      np.searchsorted(grid, fence, side="right"))
        right = crossing(grid[above], g[above], root)
        inner, n = float(grid[-1]), 32
        while right is None and inner < fence:
            e = inner + step * np.arange(1, n + 1)
            over = np.searchsorted(e, fence)
            if over < e.size:
                e = e[:over + 1]
                e[over] = fence
            _, b, tau, _ = _checked_walk(e, cfg)
            past += e.size
            right = crossing(e, np.abs(b) ** 2 / np.abs(tau) ** 2, inner)
            inner, n = float(e[-1]), min(2 * n, settings.grid_points_per_zone)
        out.append(None if right is None else right - left)
    log.debug("widths of (%.9g, %.9g): %d of %d resolved, %d crossings refined, "
              "%d scalar walk evaluations, %d energies evaluated past the scan",
              grid[0], grid[-1], sum(w is not None for w in out), len(out),
              refined, len(seen), past)
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
    margin = EVAL_MARGIN * cfg.m
    found: list[Resonance] = []
    for zone in sorted(zones, key=lambda z: zone_interval(z, cfg)[0]):
        lo, hi = zone_interval(zone, cfg)
        hits = _scan_interval(cfg, lo + margin, hi - margin, settings)
        found.extend(
            Resonance(energy=e, zone=zone, residual=res, level=lvl, fwhm=w)
            for lvl, (e, res, w) in enumerate(hits)
        )
    return sorted(found, key=lambda r: r.energy)


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
    hits = _scan_interval(cfg, lo + EVAL_MARGIN * cfg.m, e_max, settings, open_zone=True)
    return [
        Resonance(energy=e, zone=Zone.ABOVE_BARRIER, residual=res, level=lvl, fwhm=w)
        for lvl, (e, res, w) in enumerate(hits)
    ]


def attach_widths(resonances: "list[Resonance] | tuple[Resonance, ...]",
                  cfg: PotentialConfig,
                  settings: SearchSettings | None = None) -> list[Resonance]:
    """Copy of the resonances with fwhm filled in, sorted by energy.

    find_resonances and find_above_barrier fill fwhm from their own
    scans already.  This reads it for any list of resonances: it scans
    each of their zones as the search does, the open top zone up to
    _OPEN_ZONE_SPAN m above its last resonance, and reads every fwhm off
    that scan (_widths), each side fenced by the neighboring resonance of
    the list, so that an overlapping neighbor's shoulder is not mistaken
    for a crossing.  fwhm is None where a side never reaches
    |T|^2 = 1/2 before its fence, which is how strongly overlapping
    broad peaks present themselves.
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
        lo, hi = zone_interval(zone, cfg)
        open_zone = not math.isfinite(hi)
        if open_zone:
            hi = group[-1].energy + _OPEN_ZONE_SPAN * cfg.m
        grid, g = _scan_record(cfg, lo + margin, hi - margin, settings)
        widths = _widths(cfg, grid, g, [r.energy for r in group], settings, open_zone)
        out += [replace(r, fwhm=w) for r, w in zip(group, widths)]
    return sorted(out, key=lambda r: r.energy)
