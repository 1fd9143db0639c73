"""Scattering engine for a relativistic double square barrier on an
elevated floor: transfer matrices, transmission resonances, widths, and
an independent boundary-matching cross-check."""

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
from .oracle import (
    AmplitudeSet,
    SpinorSample,
    solve_amplitudes,
    wavefunction_profile,
)
from .resonance import (
    BOUNDED_ZONES,
    Resonance,
    SearchSettings,
    attach_widths,
    find_above_barrier,
    find_resonances,
)
from .transfer import (
    Matrix2x2,
    ScatteringResult,
    factor_matrices,
    full_matrix,
    scatter,
)
from .verify import CheckResult, VerificationReport, run_verification, sample_energies

__version__ = "0.1.0"

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
