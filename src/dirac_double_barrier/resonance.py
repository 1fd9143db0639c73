"""Transmission-resonance search: real roots of M21(E).

Full transmission |T|^2 = 1 happens exactly where the off-diagonal
element of the full transfer matrix vanishes.  On the real energy axis
M21 = i f(E) with f real (the real part is roundoff, below 1e-12 of
|M11|), so the resonances are the roots of f = Im M21.  Every value the
search reads comes off one checked bounded walk (transfer._checked_walk,
no matrix product), which raises where the walk overflows or
degenerates: M21 = b/tau and |M21|^2 = |b|^2/|tau|^2 for the roots, and
|T|^2 (_t2) for the widths.  The search scans |M21|^2 on a uniform grid
over a zone in one array call, takes interior local minima as brackets,
and refines each bracket on Im M21 one energy at a time with Brent's
method, carried here as a port of scipy's brentq.  Each zone's scan logs
one DEBUG record of what it did: grid points, local minima, brackets
refined, roots accepted, rejected, dropped and merged, and Brent's
evaluations.

Widths come from half-maximum marches: from each peak, step outward at
the zone's scan spacing until |T|^2 dips to 1/2, then refine that
crossing with brentq on |T|^2 at one energy.  The marches of all
resonances run in lockstep: each round gives every running march its
next chunk (32 energies, doubling up to 1024) and evaluates all chunks
in shared array calls of at most grid_points_per_zone energies, so a
spectrum's widths cost a handful of array calls rather than one or more
per march.  Each march still picks the bracket that a
one-energy-at-a-time march would.
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
from .transfer import Energy, _amplitudes, _checked_walk
# unused here, but the benchmark tracer (perfbench/tracing.py) wraps the
# names resonance.full_matrix and resonance.scatter, so they stay bound
from .transfer import full_matrix, scatter  # noqa: F401

log = logging.getLogger(__name__)

#: Default bounded zones searched when the caller does not choose.
DEFAULT_ZONES = (Zone.LOWER_KLEIN, Zone.HIGHER_KLEIN, Zone.CONVENTIONAL)

#: March cap above the top zone edge when estimating widths there, in
#: units of the mass.
_OPEN_ZONE_SPAN = 4.0

#: Energies in the width march's first array chunk; each later chunk
#: doubles, up to _MARCH_CHUNK_MAX.
_MARCH_CHUNK = 32
_MARCH_CHUNK_MAX = 1024

#: March energies whose array |T|^2 lies this close to 1/2 are decided
#: by _t2 on that one energy, as the crossing is refined.  numpy's array
#: kernels and cmath's scalar ones round differently, the more so the
#: sharper the peak: within two widths of each peak they differ in |T|^2
#: by at most 1.0e-13 on the reference potential, 5.3e-12 at a_plus = 5
#: and 2.0e-10 at a_plus = 7.
_HALF_BAND = 1e-9

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

    It sets the grid scan (|M21|^2 on the bounded walk), the width
    march's step (the zone's scan spacing) and the most energies the
    march evaluates in one array call.  Brackets are refined on M21 of
    the bounded walk, with Brent's tolerance and the |M21| gate fixed,
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


def _scan_interval(cfg: PotentialConfig, lo: float, hi: float,
                   settings: SearchSettings) -> list[tuple[float, float]]:
    """(energy, residual) pairs for the roots of M21 in (lo, hi)."""
    if not hi > lo:
        return []
    grid = nudge(np.linspace(lo, hi, settings.grid_points_per_zone), cfg)
    screen(grid, cfg)
    _, b, tau, _ = _checked_walk(grid, cfg)
    with np.errstate(all="ignore"):
        g = np.abs(b) ** 2 / np.abs(tau) ** 2  # |M21|^2 = |R|^2/|T|^2
    bad = ~np.isfinite(g)
    if bad.any():
        raise NumericalOverflow(f"|M21|^2 overflowed at E = {float(grid[bad.argmax()])!r}")
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
    return deduped


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
            Resonance(energy=e, zone=zone, residual=res, level=lvl)
            for lvl, (e, res) in enumerate(hits)
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
    hits = _scan_interval(cfg, lo + EVAL_MARGIN * cfg.m, e_max, settings)
    return [
        Resonance(energy=e, zone=Zone.ABOVE_BARRIER, residual=res, level=lvl)
        for lvl, (e, res) in enumerate(hits)
    ]


def _t2(e: Energy, cfg: PotentialConfig) -> "float | np.ndarray":
    """scatter(e, cfg).t2 to the bit, without classifying E or building the result.

    Takes one energy or an array of them, as scatter does.  Every energy
    it sees lies inside one zone's march, nudged off or bracketed between
    nudged energies, so classify's screen has nothing to reject.
    """
    t, _ = _amplitudes(_checked_walk(e, cfg))
    return abs(t) ** 2


#: A half-maximum march: (start, limit, step), the step's sign its direction.
March = tuple[float, float, float]


def _dips(e: np.ndarray, cfg: PotentialConfig, cap: int) -> np.ndarray:
    """|T|^2 <= 1/2 at each energy, in array calls of at most cap energies.

    Energies whose array |T|^2 lies within _HALF_BAND of 1/2 are decided
    by _t2 on that one energy, as the crossing is refined.
    """
    t2 = np.concatenate([_t2(e[i:i + cap], cfg) for i in range(0, e.size, cap)])
    below = t2 <= 0.5
    for j in np.flatnonzero(np.abs(t2 - 0.5) < _HALF_BAND):
        below[j] = _t2(float(e[j]), cfg) <= 0.5
    return below


def _march_brackets(cfg: PotentialConfig, marches: "list[March]",
                    settings: SearchSettings) -> "tuple[list[tuple[float, float] | None], int, int]":
    """First-dip bracket (near, far) of every march, None where it reaches its limit.

    A march visits start + i*step for i = 1, 2, ..., in chunks of 32
    doubling up to _MARCH_CHUNK_MAX, and ends a chunk that reaches its
    limit with the limit itself.  Round r takes chunk r of every running
    march, nudges all of them at once (on in the march direction, the
    limit back toward start, so it stays inside the window) and hands
    them to one _dips call, which splits them into array calls of at
    most grid_points_per_zone energies.  A march stops at its first
    energy with |T|^2 <= 1/2, bracketed with the energy before, as a
    one-energy-at-a-time march would.  A right side (odd index) stops
    once its left side has ended without a bracket.
    Also returns the number of rounds and of energies evaluated.
    """
    starts, limits, steps = np.array(marches, dtype=float).reshape(-1, 3).T
    ways = np.where(steps > 0, 1.0, -1.0)
    brackets: list[tuple[float, float] | None] = [None] * len(marches)
    alive = (limits - starts) * ways > 0
    found = np.zeros_like(alive)
    prev = starts.copy()
    rounds = evaluated = 0
    i, n = 1, _MARCH_CHUNK
    while True:
        alive[1::2] &= alive[0::2] | found[0::2]
        running = np.flatnonzero(alive)
        if not running.size:
            return brackets, rounds, evaluated
        lim, way = limits[running, None], ways[running, None]
        e = starts[running, None] + np.arange(i, i + n) * steps[running, None]
        at_limit = (e - lim) * way >= 0.0
        ends = at_limit.any(axis=1)
        stop = np.where(ends, at_limit.argmax(axis=1), n)
        ended = np.flatnonzero(ends)
        way = np.repeat(way, n, axis=1)
        e[ended, stop[ended]] = lim[ended, 0]
        way[ended, stop[ended]] *= -1.0
        kept = np.arange(n) < (stop + ends)[:, None]
        e[kept] = nudge(e[kept], cfg, way[kept])
        below = np.zeros_like(kept)
        below[kept] = _dips(e[kept], cfg, settings.grid_points_per_zone)
        evaluated += int(kept.sum())
        hit = below.any(axis=1)
        first = below.argmax(axis=1)
        for row in np.flatnonzero(hit):
            j = first[row]
            near = e[row, j - 1] if j else prev[running[row]]
            brackets[running[row]] = (float(near), float(e[row, j]))
        found[running] = hit
        alive[running] = ~(hit | ends)
        prev[running] = e[:, -1]
        rounds += 1
        i += n
        n = min(2 * n, _MARCH_CHUNK_MAX)


def _half_crossings(cfg: PotentialConfig, marches: "list[March]",
                    settings: SearchSettings) -> "list[float | None]":
    """Half-maximum crossing of every march, None where it reaches its limit.

    The brackets come from shared array rounds (_march_brackets); each is
    then refined on the scalar kernel with brentq, in list order.
    Marches 2j and 2j+1 are the left and right sides of one peak (a lone
    march is a left side): a right side whose left side returned None is
    not refined and returns None, since that peak has no width anyway.
    Raises ValueError when a march's first energy dips and |T|^2 at its
    start is not above 1/2, since then start is no peak.
    """
    brackets, rounds, evaluated = _march_brackets(cfg, marches, settings)
    out: list[float | None] = []
    for k, ((start, _, step), bracket) in enumerate(zip(marches, brackets)):
        if bracket is None or (k % 2 and out[-1] is None):
            out.append(None)
            continue
        near, far = bracket
        if near == start:
            t2 = _t2(start, cfg)
            if not t2 > 0.5:
                raise ValueError(
                    f"|T|^2 = {t2:.6g} at the march start E = {start!r} is not "
                    f"above 1/2, so no peak starts there"
                )
        a, b = (near, far) if step > 0 else (far, near)
        out.append(float(brentq(lambda x: _t2(x, cfg) - 0.5, a, b,
                                xtol=_REFINE_TOLERANCE * cfg.m)))
    log.debug("width march: %d marches in %d rounds, %d energies evaluated, "
              "%d crossings refined", len(marches), rounds, evaluated,
              sum(x is not None for x in out))
    return out


def attach_widths(resonances: "list[Resonance] | tuple[Resonance, ...]",
                  cfg: PotentialConfig,
                  settings: SearchSettings | None = None) -> list[Resonance]:
    """Copy of the resonances with fwhm filled in, sorted by energy.

    fwhm is the full width at half maximum of the |T|^2 peak, found by
    marching outward from it for the two |T|^2 = 1/2 crossings at the
    zone's scan spacing.  Within each zone a march is fenced by the
    neighboring resonance's energy, so that an overlapping neighbor's
    shoulder is not mistaken for a crossing, and otherwise by the zone
    interval one margin in, capped above the top zone edge.  fwhm is
    None when either side never dips below 1/2 before its fence, which
    is how strongly overlapping broad peaks present themselves.  The
    marches of all resonances share their array evaluations.
    """
    if settings is None:
        settings = SearchSettings()
    margin = EVAL_MARGIN * cfg.m
    by_zone: dict[Zone, list[Resonance]] = {}
    for r in resonances:
        by_zone.setdefault(r.zone, []).append(r)
    ordered: list[Resonance] = []
    marches: list[March] = []
    for zone, group in by_zone.items():
        group.sort(key=lambda r: r.energy)
        zlo, zhi = zone_interval(zone, cfg)
        for i, r in enumerate(group):
            top = zhi if math.isfinite(zhi) else max(r.energy, zlo) + _OPEN_ZONE_SPAN * cfg.m
            lo = group[i - 1].energy if i > 0 else zlo + margin
            hi = group[i + 1].energy if i + 1 < len(group) else top - margin
            step = (top - zlo) / settings.grid_points_per_zone
            ordered.append(r)
            marches += [(r.energy, lo, -step), (r.energy, hi, step)]
    crossings = _half_crossings(cfg, marches, settings)
    out = [replace(r, fwhm=None if left is None or right is None else right - left)
           for r, left, right in zip(ordered, crossings[::2], crossings[1::2])]
    return sorted(out, key=lambda r: r.energy)
