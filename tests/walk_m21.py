"""M21 read off the bounded walk: the one place the tests unpack its shape.

transfer._checked_walk returns (a, b, tau), and the resonance search
reads M21 = b/tau off it.  Tests that read M21 or |M21|^2 =
|b|^2/|tau|^2, or stand in for the walk, go through here.
"""

from __future__ import annotations

import numpy as np

from dirac_double_barrier import transfer


def b_tau(e, cfg) -> tuple:
    """(b, tau) of the checked walk at E, or at each energy of an array."""
    _, b, tau = transfer._checked_walk(e, cfg)
    return b, tau


def m21(e, cfg):
    """M21 = b/tau, as the resonance search reads it."""
    b, tau = b_tau(e, cfg)
    return b / tau


def m21_squared(e, cfg):
    """|M21|^2 = |b|^2/|tau|^2."""
    b, tau = b_tau(e, cfg)
    return np.abs(b) ** 2 / np.abs(tau) ** 2


def walk_of(b, tau) -> tuple:
    """What a checked walk with these b and tau returns, for a stand-in
    for it; the search does not read a, so it is 1."""
    return np.ones_like(tau) if isinstance(tau, np.ndarray) else 1.0, b, tau
