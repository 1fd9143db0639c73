"""Randomized invariant suite over the scattering engine.

Draws energies uniformly from a seeded generator, moved off the special
energies by core.nudge as the grids are, and tracks the worst deviation
of each conserved quantity: flux, the transfer-matrix determinant, its
two conjugation symmetries, and agreement between the transfer-matrix
and boundary-matching transmission and reflection amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EVAL_MARGIN, PotentialConfig, check_window, nudge, special_energies
from .defaults import DEFAULT_SAMPLES, DEFAULT_TOLERANCE, VERIFY_E_MIN, window
from .oracle import solve_amplitudes
from .transfer import full_matrix


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
    for n < 1, for a window that core.check_window refuses, and for one
    that lies entirely inside a single band, where no draw would stay
    in the window.
    """
    e_min, e_max = window(cfg, e_min, e_max, VERIFY_E_MIN)
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    check_window(cfg, e_min, e_max)
    width = EVAL_MARGIN * cfg.m
    for b in special_energies(cfg):
        if b - width <= e_min and e_max <= b + width:
            raise ValueError(
                f"window ({e_min!r}, {e_max!r}) lies within {width:g} of the "
                f"excluded energy {b:g}; nothing in it can be sampled"
            )
    draws = np.random.default_rng(seed).uniform(e_min, e_max, size=n)
    return nudge(draws, cfg).tolist()


def run_verification(cfg: PotentialConfig,
                     samples: int = DEFAULT_SAMPLES,
                     seed: int = 0,
                     e_min: float | None = None,
                     e_max: float | None = None,
                     tolerance: float = DEFAULT_TOLERANCE) -> VerificationReport:
    """Evaluate every invariant at seeded random energies.

    Checks, each against the same tolerance on the worst deviation:

    * flux conservation |T|^2 + |R|^2 = 1
    * unit determinant of the full transfer matrix, relative to the
      size of its two products: |det M - 1| / (|M11 M22| + |M12 M21|),
      since det M = 1 is the difference of two products that grow like
      e^{2 kappa a} under the barriers and the roundoff of that
      difference grows with them
    * M11 = conj(M22) and M12 = conj(M21)
    * transfer-matrix T and R against the boundary-matching amplitudes,
      the worse of the two

    Raises ValueError unless 0 < tolerance < inf, since no other bound
    can tell a holding invariant from a failing one.
    """
    if not 0.0 < tolerance < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tolerance}")
    e_min, e_max = window(cfg, e_min, e_max, VERIFY_E_MIN)
    energies = sample_energies(cfg, samples, seed, e_min, e_max)
    names = (
        "flux |T|^2 + |R|^2 = 1",
        "det M = 1",
        "M11 = conj(M22)",
        "M12 = conj(M21)",
        "transfer vs boundary matching",
    )
    e = np.array(energies)
    mat = full_matrix(e, cfg)
    t = 1.0 / mat.m11
    r = mat.m21 / mat.m11
    oracle = solve_amplitudes(e, cfg)
    devs = (
        np.abs(np.abs(t) ** 2 + np.abs(r) ** 2 - 1.0),
        np.abs(mat.det() - 1.0) / (np.abs(mat.m11 * mat.m22) + np.abs(mat.m12 * mat.m21)),
        np.abs(mat.m11 - mat.m22.conjugate()),
        np.abs(mat.m12 - mat.m21.conjugate()),
        np.maximum(np.abs(t - oracle.t), np.abs(r - oracle.r)),
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
