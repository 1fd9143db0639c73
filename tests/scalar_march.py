"""The one-energy-at-a-time width march, kept as a test-side reference.

Production evaluates the march energies in array chunks; this is the
plain loop it replaced, which visits them one by one and stops at the
first |T|^2 <= 1/2.  The chunked march must pick the same bracket, so
the widths built on either come out float-equal.
"""

from __future__ import annotations

from dirac_double_barrier import PotentialConfig, SearchSettings, scatter, singular_energies
from dirac_double_barrier import core, resonance


def _t2(e: float, cfg: PotentialConfig) -> float:
    return scatter(e, cfg).t2


def half_crossing(cfg: PotentialConfig, start: float, limit: float,
                  step: float, settings: SearchSettings) -> float | None:
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
                                 xtol=settings.refine_tolerance * cfg.m)
            )
        if at_limit:
            return None
        prev = e
