"""The package surface the benchmark (perfbench/) depends on.

The benchmark imports names from the package and wraps module functions
by name to trace them.  These tests read its sources with ast, without
importing or changing them, so that trimming the package cannot quietly
break a benchmark run.
"""

import ast
import importlib
import inspect
import os
import subprocess
import sys
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
    "SearchSettings",
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


def _export_owners() -> list:
    """(name, module) for every name the package binds: its eager
    ``from .module import ...`` statements, then its lazy table."""
    tree = ast.parse(Path(dirac_double_barrier.__file__).read_text())
    eager = [(alias.name, node.module) for node in tree.body
             if isinstance(node, ast.ImportFrom) and node.level == 1
             for alias in node.names]
    lazy = [(name, module) for module, names in dirac_double_barrier._LAZY.items()
            for name in names]
    return eager + lazy


def test_exports_are_pinned():
    assert dirac_double_barrier.__all__ == EXPORTS
    owners = _export_owners()
    bound = [name for name, _ in owners]
    assert sorted(bound) == sorted(EXPORTS), "each export is bound exactly once"
    for name, module in owners:
        defining = importlib.import_module(f"{PACKAGE}.{module}")
        assert getattr(dirac_double_barrier, name) is getattr(defining, name), name
    namespace: dict = {}
    exec(f"from {PACKAGE} import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(EXPORTS)
    with pytest.raises(AttributeError, match=f"module '{PACKAGE}' has no attribute 'nope'"):
        dirac_double_barrier.nope  # noqa: B018
    # after a bare import, dir() lists every export, and the lazy
    # submodules resolve as attributes
    src = str(Path(dirac_double_barrier.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import dirac_double_barrier as d; "
            "print(sorted(set(d.__all__) - set(dir(d)))); "
            "print(*(m.__name__ for m in (d.oracle, d.resonance, d.transfer, d.verify)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    unlisted, submodules = proc.stdout.splitlines()
    assert unlisted == "[]"
    assert submodules.split() == [f"{PACKAGE}.{m}" for m in
                                  ("oracle", "resonance", "transfer", "verify")]
