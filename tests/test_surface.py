"""The package surface the benchmark (perfbench/) depends on.

The benchmark imports names from the package and wraps module functions
by name to trace them.  These tests read its sources with ast, without
importing or changing them, so that trimming the package cannot quietly
break a benchmark run.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import dirac_double_barrier
from dirac_double_barrier.emit import run_sweep

PACKAGE = "dirac_double_barrier"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))

#: The package's exports, pinned: removing one is a deliberate API change.
EXPORTS = [
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


def _package_imports() -> list:
    """(file, module, name) for every name perfbench imports from the package."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == PACKAGE:
                found += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name, None) for alias in node.names
                          if alias.name.split(".")[0] == PACKAGE]
    return found


def _wrapped() -> dict:
    """tracing.WRAPPED, read from the source as a literal."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("tracing.py assigns no WRAPPED")


def test_perfbench_sources_are_found():
    assert {"layers.py", "run.py", "tracing.py", "workloads.py"} <= {p.name for p in SOURCES}
    assert _package_imports()


@pytest.mark.parametrize("where, module, name", _package_imports(),
                         ids=lambda v: v if isinstance(v, str) else "")
def test_every_name_perfbench_imports_resolves(where, module, name):
    mod = importlib.import_module(module)
    if name is not None and not hasattr(mod, name):
        # "from package import submodule" binds a module the package may not import itself
        importlib.import_module(f"{module}.{name}")


def test_every_wrapped_name_resolves():
    wrapped = _wrapped()
    assert wrapped
    for module_name, names in wrapped.items():
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{module_name}.{name}"


def test_run_sweep_still_takes_workers():
    assert "workers" in inspect.signature(run_sweep).parameters


def test_exports_are_pinned():
    assert dirac_double_barrier.__all__ == EXPORTS
    for name in EXPORTS:
        assert hasattr(dirac_double_barrier, name), name
