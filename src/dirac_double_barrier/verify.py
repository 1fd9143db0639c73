"""Randomized invariant suite over the scattering engine.

Draws admissible energies from a seeded generator and tracks the worst
deviation of each conserved quantity: flux, the transfer-matrix
determinant, its two conjugation symmetries, and agreement between the
transfer-matrix and boundary-matching transmission and reflection
amplitudes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EVAL_MARGIN, PotentialConfig, special_energies
from .oracle import solve_amplitudes
from .transfer import full_matrix

DEFAULT_TOLERANCE = 1e-10
DEFAULT_SAMPLES = 10_000

#: Most uniform draws sample_energies makes, and most in one round.
_MAX_DRAWS = 10**8
_ROUND_MAX = 2**20


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
    """n admissible energies, uniform over the window, deterministic in seed.

    Draws within (e_min, e_max) and rejects anything within EVAL_MARGIN
    of a special energy.  The kept values are the first n admissible
    ones of a single stream of draws, so the rounds of draws can be
    sized from the admissible fraction of the window without changing
    them.  A non-finite window, one that lies entirely inside the
    rejection bands, or one whose admissible part is so thin that n
    values would take more than _MAX_DRAWS draws raises ValueError.
    """
    if e_min is None:
        e_min = 1.001 * cfg.m
    if e_max is None:
        e_max = cfg.v_plus + 4.0 * cfg.m
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    if not (math.isfinite(e_min) and math.isfinite(e_max)):
        raise ValueError(f"the energy window must be finite, got ({e_min}, {e_max})")
    if not e_min > cfg.m:
        raise ValueError(f"e_min must exceed m = {cfg.m:g}, got {e_min}")
    if not e_max > e_min:
        raise ValueError("e_max must exceed e_min")
    width = EVAL_MARGIN * cfg.m
    # bands more than a width away cannot reject a draw, even by rounding
    bad = [b for b in special_energies(cfg)
           if e_min - 2.0 * width < b < e_max + 2.0 * width]
    # the window's length outside the bands; they come in ascending order
    covered, reach = 0.0, e_min
    for b in bad:
        lo, hi = max(b - width, reach), min(b + width, e_max)
        if hi > lo:
            covered += hi - lo
            reach = hi
    admissible = (e_max - e_min) - covered
    if not admissible > 0:
        raise ValueError(
            f"window ({e_min!r}, {e_max!r}) lies within {width:g} of the "
            f"excluded energy {' and '.join(f'{b:g}' for b in bad)}; "
            f"nothing in it can be sampled"
        )
    fraction = admissible / (e_max - e_min)

    def too_thin(detail: str) -> ValueError:
        return ValueError(
            f"window ({e_min!r}, {e_max!r}) leaves only {admissible:.3g} of its "
            f"length outside the excluded bands: {detail}"
        )

    if n / fraction > _MAX_DRAWS:
        raise too_thin(f"{n} samples would take about {n / fraction:.3g} draws, "
                       f"more than the cap of {_MAX_DRAWS:g}")
    rng = np.random.default_rng(seed)
    kept: list[np.ndarray] = []
    found = drawn = 0
    while found < n:
        if drawn >= _MAX_DRAWS:
            raise too_thin(f"the cap of {_MAX_DRAWS:g} draws kept {found} of {n} samples")
        # enough draws to fill the rest with a tenth to spare, in bounded rounds
        size = min(math.ceil(1.1 * (n - found) / fraction) + 16,
                   _ROUND_MAX, _MAX_DRAWS - drawn)
        draws = rng.uniform(e_min, e_max, size=size)
        keep = np.ones(size, dtype=bool)
        for b in bad:
            keep &= np.abs(draws - b) > width
        kept.append(draws[keep])
        found += kept[-1].size
        drawn += size
    return np.concatenate(kept)[:n].tolist()


def run_verification(cfg: PotentialConfig,
                     samples: int = DEFAULT_SAMPLES,
                     seed: int = 0,
                     e_min: float | None = None,
                     e_max: float | None = None,
                     tolerance: float = DEFAULT_TOLERANCE) -> VerificationReport:
    """Evaluate every invariant at seeded random energies.

    Checks, each against the same tolerance on the worst deviation:

    * flux conservation |T|^2 + |R|^2 = 1
    * unit determinant of the full transfer matrix
    * M11 = conj(M22) and M12 = conj(M21)
    * transfer-matrix T and R against the boundary-matching amplitudes,
      the worse of the two
    """
    if e_min is None:
        e_min = 1.001 * cfg.m
    if e_max is None:
        e_max = cfg.v_plus + 4.0 * cfg.m
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
        np.abs(mat.det() - 1.0),
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
