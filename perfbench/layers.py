"""Per-energy costs of the engine's layers and the import breakdown.

The per-energy costs are measured on a workload's own energies, after one
untimed pass, as the median over repeated passes.  The import breakdown runs
in fresh interpreters, because a warm process has everything imported.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from statistics import median
from time import perf_counter

from dirac_double_barrier import (
    DoubleBarrierError,
    Region,
    classify,
    factor_matrices,
    full_matrix,
    kinematics,
    scatter,
    solve_amplitudes,
)

PASSES = 5

IMPORT_PROBE = """\
import json, time
t0 = time.perf_counter()
import numpy
t1 = time.perf_counter()
import scipy.optimize
t2 = time.perf_counter()
import dirac_double_barrier
t3 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1, t3 - t2]))
"""


def _kinematics(e, cfg):
    for region in (Region.ZERO, Region.PLUS, Region.MINUS):
        kinematics(e, region, cfg)


#: Metric name -> the call it times, once per energy.
PER_ENERGY = {
    "core.classify_us": classify,
    "core.kinematics_us": _kinematics,
    "transfer.factor_matrices_us": factor_matrices,
    "transfer.full_matrix_us": full_matrix,
    "transfer.scatter_us": scatter,
    "oracle.solve_amplitudes_us": solve_amplitudes,
}


def admissible(pairs, limit: int, seed: int) -> list:
    """Up to ``limit`` seeded picks of (E, config) at which every layer evaluates."""
    rng = random.Random(seed)
    picked = []
    for e, cfg in rng.sample(pairs, min(len(pairs), 4 * limit)):
        try:
            for fn in PER_ENERGY.values():
                fn(e, cfg)
        except DoubleBarrierError:
            continue
        picked.append((e, cfg))
        if len(picked) == limit:
            break
    return picked


def per_energy_us(pairs) -> dict[str, float]:
    out = {}
    for name, fn in PER_ENERGY.items():
        passes = []
        for _ in range(PASSES):
            t0 = perf_counter()
            for e, cfg in pairs:
                fn(e, cfg)
            passes.append((perf_counter() - t0) / len(pairs) * 1e6)
        out[name] = median(passes)
    return out


def import_breakdown(env: dict, cwd, runs: int) -> dict[str, float]:
    """Median seconds to import numpy, then scipy.optimize, then the package."""
    samples = []
    for _ in range(runs):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=cwd,
                              capture_output=True, text=True, timeout=60, check=True)
        samples.append(json.loads(done.stdout))
    numpy_s, scipy_s, package_s = (median(col) for col in zip(*samples))
    return {"import.numpy_s": numpy_s, "import.scipy_s": scipy_s,
            "import.package_s": package_s}
