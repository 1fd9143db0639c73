"""Randomized invariant suite over the scattering engine.

Draws energies uniformly from a seeded generator, moved off the special
energies by core.nudge as the grids are, and tracks the worst deviation
of three invariants of the amplitudes every command prints, the bounded
walk's (transfer.scatter): flux, the structure's mirror symmetry, and
agreement with the independent boundary-matching solve (the oracle).

The samples are checked in blocks of _BLOCK energies (core._blocks),
each walked and solved on its own, and only each block's worst
deviations are kept, so beyond the array of samples, 8 B each, verify
holds the same memory at any sample count.  The report names the same first maximum or first NaN
as one pass over all samples would.  The first block that fails decides
which error is raised, the walk's before the oracle's within a block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import PotentialConfig, _blocks, _nudge_in_place, check_window
from .defaults import DEFAULT_SAMPLES, DEFAULT_TOLERANCE, VERIFY_E_MIN, window
from .oracle import _CHUNK, solve_amplitudes
from .transfer import scatter
# unused here, but the benchmark tracer (perfbench/tracing.py) wraps the
# name verify.full_matrix, so it stays bound
from .transfer import full_matrix  # noqa: F401

#: Samples per walk and oracle solve, a whole number of the oracle's
#: chunks: it bounds the arrays a run holds at any sample count.
_BLOCK = 2 * _CHUNK


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
    return _draws(cfg, n, seed, e_min, e_max).tolist()


def _draws(cfg: PotentialConfig, n: int, seed: int,
           e_min: float | None, e_max: float | None) -> np.ndarray:
    """sample_energies as an array, 8 B per sample where the list takes 32."""
    e_min, e_max = window(cfg, e_min, e_max, VERIFY_E_MIN)
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    check_window(cfg, e_min, e_max)
    draws = np.random.default_rng(seed).uniform(e_min, e_max, size=n)
    return _nudge_in_place(draws, cfg)


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
    can tell a holding invariant from a failing one, and for samples < 1.
    An error of the walk or the oracle comes from the first block in which
    either fails, the walk's first within a block.
    """
    if not 0.0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    e_min, e_max = window(cfg, e_min, e_max, VERIFY_E_MIN)
    energies = _draws(cfg, samples, seed, e_min, e_max)
    names = (
        "flux |T|^2 + |R|^2 = 1",
        "mirror Re(R conj T) = 0",
        "walk vs boundary matching",
    )
    blocks = _blocks(samples, _BLOCK)
    worst = np.empty((len(blocks), len(names)))
    at = np.empty_like(worst)
    for k, block in enumerate(blocks):
        e = energies[block]
        walk = scatter(e, cfg)
        oracle = solve_amplitudes(e, cfg)
        devs = (
            np.abs(walk.t2 + walk.r2 - 1.0),
            np.abs((walk.r * walk.t.conjugate()).real),
            np.maximum(np.abs(walk.t - oracle.t), np.abs(walk.r - oracle.r)),
        )
        for i, d in enumerate(devs):
            j = d.argmax()
            worst[k, i], at[k, i] = d[j], e[j]
    # argmax names the first NaN, else the first maximum: over the blocks'
    # worsts as over all samples at once
    first = worst.argmax(axis=0)
    checks = tuple(
        CheckResult(name=name, worst=float(worst[k, i]),
                    at_energy=float(at[k, i]), tolerance=tolerance)
        for i, (name, k) in enumerate(zip(names, first))
    )
    return VerificationReport(
        config=cfg,
        seed=seed,
        samples=samples,
        e_min=e_min,
        e_max=e_max,
        checks=checks,
    )
