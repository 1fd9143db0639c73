"""The in-package Brent solver against scipy.optimize.brentq, and the
import footprint it buys."""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import dirac_double_barrier
from dirac_double_barrier import (
    attach_widths,
    find_above_barrier,
    find_resonances,
    resonance,
)
from dirac_double_barrier.resonance import BOUNDED_ZONES


@pytest.fixture(scope="module")
def scipy_brentq():
    return pytest.importorskip("scipy.optimize").brentq


def _outcome(solver, f, a, b, **kwargs):
    """The root as a float, or the type of the error raised."""
    try:
        return solver(f, a, b, **kwargs)
    except (ValueError, RuntimeError) as exc:
        return type(exc)


def _brentq_calls(monkeypatch, run) -> list:
    """(f, a, b, kwargs) of every call the engine makes to resonance.brentq."""
    calls = []
    port = resonance.brentq

    def recording(f, a, b, **kwargs):
        calls.append((f, a, b, kwargs))
        return port(f, a, b, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(resonance, "brentq", recording)
        run()
    return calls


def _assert_parity(calls, scipy_brentq):
    for f, a, b, kwargs in calls:
        got = _outcome(resonance.brentq, f, a, b, **kwargs)
        want = _outcome(scipy_brentq, f, a, b, **kwargs)
        assert type(got) is type(want)
        if isinstance(want, float):
            assert got.hex() == want.hex(), (a, b)
        else:
            assert got is want, (a, b)


def test_brentq_is_a_module_attribute():
    # the benchmark's tracer wraps resonance.brentq by name
    assert callable(vars(resonance)["brentq"])


def test_scan_brackets_match_scipy(reference, monkeypatch, scipy_brentq):
    calls = _brentq_calls(monkeypatch, lambda: (
        find_resonances(reference, BOUNDED_ZONES),
        find_above_barrier(reference, 11.0),
    ))
    assert len(calls) >= 23
    _assert_parity(calls, scipy_brentq)


def test_half_maximum_brackets_match_scipy(reference, reference_resonances,
                                           monkeypatch, scipy_brentq):
    calls = _brentq_calls(
        monkeypatch, lambda: attach_widths(reference_resonances, reference)
    )
    assert len(calls) >= 2 * 9
    _assert_parity(calls, scipy_brentq)


def _cubic(x):
    return x**3 - 2.0 * x - 5.0


@pytest.mark.parametrize("f, a, b, kwargs", [
    (_cubic, 2.0, 3.0, {}),
    (_cubic, 2.0, 3.0, dict(xtol=1e-4)),
    (lambda x: x - 1.0, 1.0, 2.0, {}),  # root at the left endpoint
    (lambda x: x - 1.0, 0.0, 1.0, {}),  # root at the right endpoint
    (lambda x: x * x + 1.0, -1.0, 1.0, {}),  # same sign: ValueError
    (_cubic, 2.0, 3.0, dict(maxiter=2)),  # exhausted: RuntimeError
], ids=["cubic", "cubic-loose", "left-end", "right-end", "same-sign", "maxiter"])
def test_synthetic_cases_match_scipy(f, a, b, kwargs, scipy_brentq):
    _assert_parity([(f, a, b, kwargs)], scipy_brentq)


def _random_case(rng: random.Random):
    kind = rng.randrange(4)
    if kind == 0:
        c = [rng.uniform(-3.0, 3.0) for _ in range(rng.randint(2, 6))]
        f = lambda x: sum(ci * x**i for i, ci in enumerate(c))  # noqa: E731
    elif kind == 1:
        # saturates, and its scale reaches over- and underflow
        scale, r0 = 10.0 ** rng.uniform(-300, 300), rng.uniform(-1.0, 1.0)
        f = lambda x: scale * math.tanh(50.0 * (x - r0))  # noqa: E731
    elif kind == 2:
        w, p = rng.uniform(0.5, 30.0), rng.uniform(0.0, 6.0)
        f = lambda x: math.sin(w * x + p)  # noqa: E731
    else:
        r0, k = rng.uniform(-1.0, 1.0), rng.choice([1, 3, 5, 7])
        f = lambda x: (x - r0) ** k  # noqa: E731
    kwargs = dict(xtol=10.0 ** rng.uniform(-15, -2), maxiter=rng.choice([3, 10, 100]))
    return f, rng.uniform(-2.0, 0.0), rng.uniform(0.0, 2.0), kwargs


def test_seeded_random_cases_match_scipy(scipy_brentq):
    # loose tolerances and few steps make the result depend on every
    # step the solver takes, not just on where the root is
    rng = random.Random(2024)
    _assert_parity([_random_case(rng) for _ in range(2000)], scipy_brentq)


def test_solver_errors():
    with pytest.raises(ValueError):
        resonance.brentq(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(RuntimeError):
        resonance.brentq(_cubic, 2.0, 3.0, maxiter=2)
    with pytest.raises(ValueError):
        resonance.brentq(lambda x: float("nan"), 2.0, 3.0)
    assert resonance.brentq(_cubic, 2.0, 3.0) == pytest.approx(2.0945514815, abs=1e-10)


def test_import_does_not_load_scipy():
    src = str(Path(dirac_double_barrier.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, dirac_double_barrier, dirac_double_barrier.cli; "
            "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
    # a bare import loads only core and errors; the other layers load on first use
    code = ("import sys, dirac_double_barrier; "
            "print(*sorted(k for k in sys.modules if k.split('.')[0] == 'dirac_double_barrier'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.split() == ["dirac_double_barrier", "dirac_double_barrier.core",
                                   "dirac_double_barrier.errors"]

