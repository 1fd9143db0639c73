"""Randomized invariant suite over the scattering engine.

Draws energies uniformly from a seeded generator, moved off the special
energies by core.nudge as the grids are, and tracks the worst deviation
of three invariants of the amplitudes every command prints, the bounded
walk's (transfer.scatter): flux, the structure's mirror symmetry, and
agreement with the independent boundary-matching solve (the oracle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PotentialConfig, check_window, nudge
from .defaults import DEFAULT_SAMPLES, DEFAULT_TOLERANCE, VERIFY_E_MIN, window
from .oracle import solve_amplitudes
from .transfer import scatter
# unused here, but the benchmark tracer (perfbench/tracing.py) wraps the
# name verify.full_matrix, so it stays bound
from .transfer import full_matrix  # noqa: F401


@dataclass(frozen=True)
class CheckResult:
    """Worst observed deviation of one invariant."""

    name: str
    worst: float
    at_energy: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.worst < self.tolerance


@dataclass(frozen=True)
class VerificationReport:
    config: PotentialConfig
    seed: int
    samples: int
    e_min: float
    e_max: float
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.passed]

    def render(self) -> str:
        cfg = self.config
        lines = [
            f"config: m={cfg.m:g} v_plus={cfg.v_plus:g} v_minus={cfg.v_minus:g} "
            f"a_plus={cfg.a_plus:g} a_minus={cfg.a_minus:g}",
            f"samples: {self.samples} seed: {self.seed} "
            f"window: ({self.e_min:g}, {self.e_max:g})",
        ]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(
                f"{status}  {c.name:<32} worst {c.worst:.3e} "
                f"(tol {c.tolerance:g}) at E = {c.at_energy:.9g}"
            )
        verdict = "all invariants hold" if self.passed else (
            "FAILED: " + ", ".join(c.name for c in self.failures)
        )
        lines.append(verdict)
        return "\n".join(lines)


def sample_energies(cfg: PotentialConfig, n: int, seed: int,
                    e_min: float | None = None,
                    e_max: float | None = None) -> list[float]:
    """n energies drawn uniformly over the window, deterministic in seed.

    The draws go through core.nudge, as grid points do: one within
    EVAL_MARGIN * m of a special energy moves to exactly that distance,
    on the side it lies on.  So a window edge inside such a band can
    leave samples up to EVAL_MARGIN * m beyond it.  Raises ValueError
    for n < 1 and for a window that core.check_window refuses, one that
    lies entirely inside a single band among them.
    """
    e_min, e_max = window(cfg, e_min, e_max, VERIFY_E_MIN)
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    check_window(cfg, e_min, e_max)
    draws = np.random.default_rng(seed).uniform(e_min, e_max, size=n)
    return nudge(draws, cfg).tolist()


def run_verification(cfg: PotentialConfig,
                     samples: int = DEFAULT_SAMPLES,
                     seed: int = 0,
                     e_min: float | None = None,
                     e_max: float | None = None,
                     tolerance: float = DEFAULT_TOLERANCE) -> VerificationReport:
    """Evaluate every invariant at seeded random energies.

    Checks, each against the same tolerance on the worst deviation, of
    scatter's T and R:

    * flux conservation, |t2 + r2 - 1| on the printed |T|^2 and |R|^2
    * mirror symmetry: M21 = R/T is imaginary for a structure symmetric
      about x = 0, so |Re(R conj T)| = |Re M21| |T|^2 vanishes, with no
      division by T.  Where the barriers' decay underflows, T is exactly
      0 and this holds trivially, while flux then reduces to |R|^2 = 1
    * the walk against the boundary-matching amplitudes, the larger of
      |T - T_oracle| and |R - R_oracle|

    Raises ValueError unless 0 < tolerance < inf, since no other bound
    can tell a holding invariant from a failing one.
    """
    if not 0.0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    e_min, e_max = window(cfg, e_min, e_max, VERIFY_E_MIN)
    energies = sample_energies(cfg, samples, seed, e_min, e_max)
    names = (
        "flux |T|^2 + |R|^2 = 1",
        "mirror Re(R conj T) = 0",
        "walk vs boundary matching",
    )
    e = np.array(energies)
    walk = scatter(e, cfg)
    oracle = solve_amplitudes(e, cfg)
    devs = (
        np.abs(walk.t2 + walk.r2 - 1.0),
        np.abs((walk.r * walk.t.conjugate()).real),
        np.maximum(np.abs(walk.t - oracle.t), np.abs(walk.r - oracle.r)),
    )
    checks = tuple(
        CheckResult(name=name, worst=float(d.max()),
                    at_energy=energies[int(d.argmax())], tolerance=tolerance)
        for name, d in zip(names, devs)
    )
    return VerificationReport(
        config=cfg,
        seed=seed,
        samples=samples,
        e_min=e_min,
        e_max=e_max,
        checks=checks,
    )
