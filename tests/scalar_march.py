"""The one-energy-at-a-time width march, kept as a test-side reference.

Production reads each width off the search's own grid scan of |M21|^2
and refines the crossings on log|M21|; this is the plain loop it
replaced, which runs one march at a time on scatter's |T|^2, visits its
energies one by one, a zone's width over grid_points_per_zone apart, and
stops at the first |T|^2 <= 1/2.  Both refine the same crossings with
Brent to 1e-12 m, on different functions from different brackets, so
their widths agree to within Brent's stopping rule, not to the bit.
"""

from __future__ import annotations

import math

from dirac_double_barrier import (
    PotentialConfig,
    scatter,
    singular_energies,
    zone_interval,
)
from dirac_double_barrier import core, resonance
from dirac_double_barrier.defaults import GRID_POINTS_PER_ZONE


def _t2(e: float, cfg: PotentialConfig) -> float:
    return scatter(e, cfg).t2


def half_crossing(cfg: PotentialConfig, start: float, limit: float,
                  step: float) -> float | None:
    """March from start toward limit until |T|^2 dips to 1/2, then refine.

    The step's sign sets the direction.  Returns None when the limit is
    reached with |T|^2 still above 1/2.
    """
    margin = core.EVAL_MARGIN * cfg.m
    bad = sorted({*singular_energies(cfg), cfg.v_minus, cfg.v_plus})
    direction = 1.0 if step > 0 else -1.0
    if (limit - start) * direction <= 0:
        return None
    prev = start
    i = 0
    while True:
        i += 1
        e = start + i * step
        at_limit = (e - limit) * direction >= 0.0
        if at_limit:
            e = limit
        for s in bad:
            if abs(e - s) < margin:
                # the limit goes back toward start, so it stays in the window
                e = s - margin * direction if at_limit else s + margin * direction
        if _t2(e, cfg) <= 0.5:
            a, b = (prev, e) if direction > 0 else (e, prev)
            return float(
                resonance.brentq(lambda x: _t2(x, cfg) - 0.5, a, b,
                                 xtol=resonance._REFINE_TOLERANCE * cfg.m)
            )
        if at_limit:
            return None
        prev = e


def widths(resonances, cfg: PotentialConfig,
           grid_points_per_zone: int = GRID_POINTS_PER_ZONE) -> list:
    """fwhm of each resonance, in order of energy, one march at a time.

    Within each zone a resonance's marches are fenced by its neighbors'
    energies, else by the zone edges one margin in (the open top zone
    capped 4 m above its lower edge or the peak), and step at the zone's
    scan spacing; a right side runs only if the left side crossed.
    """
    margin = core.EVAL_MARGIN * cfg.m
    by_zone: dict = {}
    for r in resonances:
        by_zone.setdefault(r.zone, []).append(r)
    out = []
    for group in by_zone.values():
        group = sorted(group, key=lambda r: r.energy)
        for i, r in enumerate(group):
            zlo, zhi = zone_interval(r.zone, cfg)
            if math.isinf(zhi):
                zhi = max(r.energy, zlo) + 4.0 * cfg.m
            lo = group[i - 1].energy if i > 0 else zlo + margin
            hi = group[i + 1].energy if i + 1 < len(group) else zhi - margin
            step = (zhi - zlo) / grid_points_per_zone
            left = half_crossing(cfg, r.energy, lo, -step)
            right = None if left is None else half_crossing(cfg, r.energy, hi, step)
            out.append((r.energy, None if right is None else right - left))
    return [w for _, w in sorted(out, key=lambda p: p[0])]
