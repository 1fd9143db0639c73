"""Scattering engine for a relativistic double square barrier on an
elevated floor: transfer matrices, transmission resonances, widths, and
an independent boundary-matching cross-check.

A bare import loads ``core`` and ``errors``, and no numpy: the
configuration, the zone and special-energy helpers and every scalar path
of ``core`` are pure Python and cmath, and ``core`` imports numpy only on
its array paths.  The walk (``transfer``), the search (``resonance``), the
oracle and the verifier load on first use of one of their names (PEP
562), so a caller that needs only part of the package does not compile
the rest.  ``cli`` and ``emit`` bind their names from the other layers the
same way, so each CLI subcommand loads only the layers it runs (besides
``core``, ``errors``, ``defaults`` and ``cli``):

* ``transmission``: ``emit``, ``transfer``, ``_printf``, and ``svg`` with
  ``--svg``;
* ``resonances``: ``emit``, ``transfer``, ``resonance``;
* ``sweep``: ``emit``, ``transfer``, ``_printf``, and ``resonance`` with
  ``--with-resonances``;
* ``verify``: ``transfer``, ``oracle``, ``verify``.

Each of these loads numpy; a command that computes nothing (help, a
usage error, an invalid potential) does not.
"""

from .core import (
    EVAL_MARGIN,
    SINGULAR_TOL,
    ZONE_ORDER,
    Kinematics,
    MatrixRange,
    PotentialConfig,
    Region,
    Zone,
    classify,
    kinematics,
    singular_energies,
    special_energies,
    zone_interval,
)
from .errors import (
    BoundaryEnergy,
    ConfigError,
    DegenerateMatrix,
    DoubleBarrierError,
    InadmissibleEnergy,
    NumericalOverflow,
    SingularEnergy,
    SingularSystem,
)

__version__ = "0.1.0"

def _lazy_attributes(namespace: dict, owners: dict):
    """A PEP 562 module ``__getattr__`` for the module whose globals are namespace.

    owners maps a submodule of this package to the names the module
    takes from it.  The first lookup of such a name imports the
    submodule and binds the name in namespace, unless something bound it
    meanwhile; a binding set on the module (a test's replacement, the
    benchmark's tracer) is never overwritten.  Code inside the module
    must look these names up on the module object, since a plain global
    lookup does not reach ``__getattr__``.  ``__import__``, unlike
    ``importlib.import_module``, shows the import in ``-X importtime``.
    """
    owner = {name: module for module, names in owners.items() for name in names}

    def __getattr__(name):
        module = owner.get(name)
        if module is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}")
        submodule = __import__(f"{namespace['__package__']}.{module}", fromlist=(name,))
        return namespace.setdefault(name, getattr(submodule, name))

    return __getattr__


#: Submodule -> the exports it defines, imported on first access.
_LAZY = {
    "oracle": ("AmplitudeSet", "SpinorSample", "solve_amplitudes", "wavefunction_profile"),
    "resonance": ("Resonance", "attach_widths", "find_above_barrier", "find_resonances"),
    "transfer": ("Matrix2x2", "ScatteringResult", "factor_matrices", "full_matrix",
                 "scatter"),
    "verify": ("CheckResult", "VerificationReport", "run_verification", "sample_energies"),
}
_export = _lazy_attributes(globals(), _LAZY)


def __getattr__(name):
    if name in _LAZY:
        # importing a submodule binds it in this namespace
        return __import__(f"{__name__}.{name}", fromlist=("_",))
    return _export(name)


def __dir__():
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "AmplitudeSet",
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
    "Region",
    "Resonance",
    "ScatteringResult",
    "SINGULAR_TOL",
    "SingularEnergy",
    "SingularSystem",
    "SpinorSample",
    "VerificationReport",
    "ZONE_ORDER",
    "Zone",
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
    "wavefunction_profile",
    "zone_interval",
    "run_verification",
]
