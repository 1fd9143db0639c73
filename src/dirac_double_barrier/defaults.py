"""Defaults shared by the command line and the layers that use them.

This module imports nothing, so the CLI's parser can spell every default
in its help without loading the layers (emit, resonance, verify) whose
defaults they are.  Energies are in units of the mass m.
"""

from __future__ import annotations

#: Swept parameter names accepted by emit.run_sweep, as spelled on the CLI.
SWEEP_PARAMS = ("a-minus", "a-plus")

#: Scan points per zone of the resonance search (grid_points_per_zone),
#: spaced evenly in the waves' phase: 2,000 keep every root of the potentials
#: README tests, where 1,750 lose 4.
GRID_POINTS_PER_ZONE = 2000

#: verify's sample count and worst-deviation bound.
DEFAULT_SAMPLES = 10_000
DEFAULT_TOLERANCE = 1e-10

#: Default window start of curves and sweeps, and of verify, times m.
CURVE_E_MIN = 1.01
VERIFY_E_MIN = 1.001

#: Default window end of curves, sweeps and verify: v_plus + this times m.
E_MAX_ABOVE_V_PLUS = 4.0

#: Default above-barrier cutoff of the resonance report: v_plus + this times m.
RESONANCE_E_MAX_ABOVE_V_PLUS = 3.0


def window(cfg, e_min: float | None, e_max: float | None,
           start: float) -> tuple[float, float]:
    """The window, e_min defaulting to start * m and e_max to
    v_plus + E_MAX_ABOVE_V_PLUS * m."""
    return (start * cfg.m if e_min is None else e_min,
            cfg.v_plus + E_MAX_ABOVE_V_PLUS * cfg.m if e_max is None else e_max)
