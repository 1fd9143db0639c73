"""Scattering engine for a relativistic double square barrier on an
elevated floor: transfer matrices, transmission resonances, widths, and
an independent boundary-matching cross-check.

A bare import loads ``core``, ``errors`` and numpy.  The walk
(``transfer``), the search (``resonance``), the oracle and the verifier
load on first use of one of their names (PEP 562), so a caller that needs
only part of the package does not compile the rest.  Every CLI process
still loads them all: ``cli`` binds the names the benchmark tracer
(``perfbench/tracing.py``) wraps.
"""

import importlib

from .core import (
    EVAL_MARGIN,
    SINGULAR_TOL,
    ZONE_ORDER,
    Kinematics,
    MatrixRange,
    PotentialConfig,
    Region,
    Zone,
    alpha_beta,
    classify,
    kinematics,
    singular_energies,
    special_energies,
    wave_vector,
    zone_interval,
)
from .errors import (
    BoundaryEnergy,
    ConfigError,
    DegenerateMatrix,
    DoubleBarrierError,
    InadmissibleEnergy,
    NumericalOverflow,
    RefinementFailed,
    SingularEnergy,
    SingularSystem,
)

__version__ = "0.1.0"

#: Submodule -> the exports it defines, imported on first access.
_LAZY = {
    "oracle": ("AmplitudeSet", "SpinorSample", "solve_amplitudes", "wavefunction_profile"),
    "resonance": ("BOUNDED_ZONES", "Resonance", "SearchSettings", "attach_widths",
                  "find_above_barrier", "find_resonances"),
    "transfer": ("Matrix2x2", "ScatteringResult", "factor_matrices", "full_matrix",
                 "scatter"),
    "verify": ("CheckResult", "VerificationReport", "run_verification", "sample_energies"),
}
_OWNER = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name):
    module = _OWNER.get(name)
    if module is not None:
        value = getattr(importlib.import_module(f".{module}", __name__), name)
        globals()[name] = value
        return value
    if name in _LAZY:
        # importing a submodule binds it in this namespace
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "AmplitudeSet",
    "BOUNDED_ZONES",
    "BoundaryEnergy",
    "CheckResult",
    "ConfigError",
    "DegenerateMatrix",
    "DoubleBarrierError",
    "EVAL_MARGIN",
    "InadmissibleEnergy",
    "Kinematics",
    "Matrix2x2",
    "MatrixRange",
    "NumericalOverflow",
    "PotentialConfig",
    "RefinementFailed",
    "Region",
    "Resonance",
    "ScatteringResult",
    "SearchSettings",
    "SINGULAR_TOL",
    "SingularEnergy",
    "SingularSystem",
    "SpinorSample",
    "VerificationReport",
    "ZONE_ORDER",
    "Zone",
    "alpha_beta",
    "attach_widths",
    "classify",
    "factor_matrices",
    "find_above_barrier",
    "find_resonances",
    "full_matrix",
    "kinematics",
    "sample_energies",
    "scatter",
    "singular_energies",
    "special_energies",
    "solve_amplitudes",
    "wave_vector",
    "wavefunction_profile",
    "zone_interval",
    "run_verification",
]
