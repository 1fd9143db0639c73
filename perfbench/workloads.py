"""The four benchmark workloads: CLI arguments, library job and output gates.

Each workload is one step of the paper's workflow (arXiv 1004.3892): the
transmission curve, the resonance table with widths for every zone, the
invariant cross-check, and a sweep over the floor width.  Every gate is a
physics tolerance or a frozen reference value, so it holds for any seed.
"""

from __future__ import annotations

import importlib.util
import json
import random
import xml.etree.ElementTree as ElementTree
from pathlib import Path

import numpy as np

from dirac_double_barrier import (
    ZONE_ORDER,
    PotentialConfig,
    run_verification,
    sample_energies,
    solve_amplitudes,
    zone_interval,
)
from dirac_double_barrier.emit import run_sweep, transmission_rows, zone_report

REFERENCE = PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=3.0, a_minus=2.5)
TALL = PotentialConfig(v_plus=10.0, v_minus=4.0, a_plus=3.0, a_minus=2.5)

FLUX_TOL = 1e-10
ORACLE_TOL = 1e-10
ENERGY_TOL = 1e-8
FWHM_REL_TOL = 1e-4
#: Rows of a curve compared against the boundary-matching solve.
ORACLE_SAMPLES = 64


def potential_args(cfg: PotentialConfig) -> list[str]:
    return ["--v-plus", repr(cfg.v_plus), "--v-minus", repr(cfg.v_minus),
            "--a-plus", repr(cfg.a_plus), "--a-minus", repr(cfg.a_minus)]


def jittered_window(seed: int) -> tuple[float, float]:
    """E in [1.01, 12] with each end moved inward by up to 0.01."""
    rng = random.Random(seed)
    return 1.01 + 0.01 * rng.random(), 12.0 - 0.01 * rng.random()


def load_frozen(root: Path):
    """The test suite's frozen reference constants, read from the checkout."""
    path = root / "tests" / "frozen_values.py"
    spec = importlib.util.spec_from_file_location("frozen_values", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def read_curve(path: Path) -> np.ndarray:
    """CSV curve as an (n, 7) array: E, T2, R2, reT, imT, reR, imR."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def rows_array(rows) -> np.ndarray:
    return np.array([(r.e, r.t2, r.r2, r.t.real, r.t.imag, r.r.real, r.r.imag)
                     for r in rows])


def check_flux(table: np.ndarray, what: str) -> list[str]:
    t = table[:, 3] + 1j * table[:, 4]
    r = table[:, 5] + 1j * table[:, 6]
    worst = max(np.abs(table[:, 1] + table[:, 2] - 1.0).max(),
                np.abs(np.abs(t) ** 2 + np.abs(r) ** 2 - 1.0).max())
    if not worst <= FLUX_TOL:
        return [f"{what}: |T|^2 + |R|^2 misses 1 by {worst:.3e}"]
    return []


def check_curve(table: np.ndarray, cfg: PotentialConfig, e_min: float,
                e_max: float, points: int, seed: int, what: str) -> list[str]:
    """Row count, grid, flux on every row, and sampled rows against the oracle."""
    if table.shape != (points, 7):
        return [f"{what}: {table.shape[0]} rows, expected {points}"]
    grid = np.linspace(e_min, e_max, points)
    # the engine nudges grid points off singular energies by 1e-6
    if not np.abs(table[:, 0] - grid).max() <= 2e-6:
        return [f"{what}: energies are not the requested grid"]
    failures = check_flux(table, what)
    rng = np.random.default_rng(seed)
    for i in rng.choice(points, size=min(ORACLE_SAMPLES, points), replace=False):
        e = float(grid[i])
        if abs(table[i, 0] - e) > 1e-11 * e:
            continue  # nudged point: covered by the flux check only
        amp = solve_amplitudes(e, cfg)
        dev = max(abs(complex(table[i, 3], table[i, 4]) - amp.t),
                  abs(complex(table[i, 5], table[i, 6]) - amp.r))
        if not dev <= ORACLE_TOL:
            failures.append(f"{what}: row at E = {e!r} is {dev:.3e} from the oracle")
    return failures


def check_report(doc: dict, cfg: PotentialConfig, e_max: float,
                 expected: dict[str, tuple], what: str,
                 spots: dict | None = None) -> list[str]:
    """Zone names, counts and energies of a resonance report.

    ``expected`` maps a zone name to its exact energies, or to a count where
    only the count is frozen; ``spots`` pins (zone, level) -> energy.
    """
    failures = []
    zones = {z["name"]: z["resonances"] for z in doc.get("zones", ())}
    if list(zones) != [z.value for z in ZONE_ORDER]:
        return [f"{what}: zones {list(zones)}"]
    if doc.get("config", {}).get("v_plus") != cfg.v_plus:
        failures.append(f"{what}: report is for another potential")
    for name, want in expected.items():
        got = [r["energy"] for r in zones[name]]
        count = want if isinstance(want, int) else len(want)
        if len(got) != count:
            failures.append(f"{what}: {name} has {len(got)} resonances, expected {count}")
        elif not isinstance(want, int):
            dev = max((abs(a - b) for a, b in zip(got, want)), default=0.0)
            if not dev <= ENERGY_TOL:
                failures.append(f"{what}: {name} energies off by {dev:.3e}")
    for (name, level), energy in (spots or {}).items():
        match = [r["energy"] for r in zones[name] if r["level"] == level]
        if len(match) != 1 or not abs(match[0] - energy) <= ENERGY_TOL:
            failures.append(f"{what}: {name} level {level} is {match}, expected {energy}")
    for r in zones[ZONE_ORDER[-1].value]:
        if not zone_interval(ZONE_ORDER[-1], cfg)[0] < r["energy"] < e_max:
            failures.append(f"{what}: above-barrier resonance outside the window")
    return failures


class Workload:
    """One named load: CLI processes, the same job in process, and gates."""

    name = ""

    def __init__(self, root: Path, seed: int):
        self.seed = seed

    def argvs(self, outdir: Path) -> list[list[str]]:
        """Arguments after ``python -m dirac_double_barrier``, one list per process."""
        raise NotImplementedError

    def traced_argvs(self, outdir: Path) -> list[list[str]]:
        """Arguments for the in-process traced run (the same job by default)."""
        return self.argvs(outdir)

    def check_process(self, index: int, outdir: Path, stdout: str) -> list[str]:
        raise NotImplementedError

    def solve(self, outdir: Path):
        """The workload's job through the library; returns what check_solve reads."""
        raise NotImplementedError

    def check_solve(self, result, outdir: Path) -> list[str]:
        raise NotImplementedError

    def energies(self, outdir: Path) -> list[tuple[float, PotentialConfig]]:
        """(E, config) pairs the workload evaluates, read from its outputs."""
        raise NotImplementedError

    def found(self, outdir: Path) -> int:
        """Resonances in the reports the job wrote to outdir."""
        return 0

    def expected_count(self) -> int:
        """Resonances the frozen tables hold for this job."""
        return 0


class Curve(Workload):
    name = "curve"
    points = 20_000

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.e_min, self.e_max = jittered_window(seed)

    def argvs(self, outdir):
        return [["transmission", *potential_args(REFERENCE),
                 "--e-min", repr(self.e_min), "--e-max", repr(self.e_max),
                 "--points", str(self.points),
                 "--out", str(outdir / "curve.csv"),
                 "--svg", str(outdir / "curve.svg")]]

    def check_process(self, index, outdir, stdout):
        if f"wrote {self.points} rows" not in stdout:
            return ["curve: row count missing from stdout"]
        try:
            table = read_curve(outdir / "curve.csv")
            svg = ElementTree.parse(outdir / "curve.svg").getroot()
        except (OSError, ValueError, ElementTree.ParseError) as exc:
            return [f"curve: unreadable output: {exc}"]
        failures = check_curve(table, REFERENCE, self.e_min, self.e_max,
                               self.points, self.seed, "curve CSV")
        if not svg.tag.endswith("svg"):
            failures.append("curve: SVG root is not <svg>")
        return failures

    def solve(self, outdir):
        return transmission_rows(REFERENCE, self.e_min, self.e_max, self.points)

    def check_solve(self, result, outdir):
        return check_curve(rows_array(result), REFERENCE, self.e_min, self.e_max,
                           self.points, self.seed, "transmission_rows")

    def energies(self, outdir):
        return [(float(e), REFERENCE) for e in read_curve(outdir / "curve.csv")[:, 0]]


class Spectrum(Workload):
    name = "spectrum"
    jobs = ((REFERENCE, 11.0, "reference.json"), (TALL, 13.0, "tall.json"))

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.frozen = load_frozen(root)

    def argvs(self, outdir):
        return [["resonances", *potential_args(cfg), "--zone", "all",
                 "--e-max", repr(e_max), "--out", str(outdir / name)]
                for cfg, e_max, name in self.jobs]

    def expected(self, index):
        f = self.frozen
        if index == 0:
            return {"lower-klein": f.LOWER_KLEIN_ENERGIES, "gap-lower": (),
                    "higher-klein": f.HIGHER_KLEIN_ENERGIES,
                    "conventional": f.CONVENTIONAL_ENERGIES,
                    "above-barrier": f.ABOVE_BARRIER_ENERGIES}, {}
        return dict(f.TALL_BARRIER_COUNTS), f.TALL_BARRIER_SPOT_ENERGIES

    def expected_count(self):
        total = 0
        for index in range(len(self.jobs)):
            for want in self.expected(index)[0].values():
                total += want if isinstance(want, int) else len(want)
        return total

    def check_doc(self, index, doc):
        cfg, e_max, name = self.jobs[index]
        expected, spots = self.expected(index)
        failures = check_report(doc, cfg, e_max, expected, name, spots)
        if index == 0 and not failures:
            conv = [r["fwhm"] for z in doc["zones"] if z["name"] == "conventional"
                    for r in z["resonances"] if r["fwhm"] is not None]
            dense = self.frozen.SHARPEST_CONV_FWHM_DENSE
            if not conv or not abs(min(conv) - dense) <= FWHM_REL_TOL * dense:
                failures.append(f"{name}: sharpest conventional FWHM "
                                f"{min(conv, default=None)}, expected {dense}")
        return failures

    def check_process(self, index, outdir, stdout):
        try:
            doc = json.loads((outdir / self.jobs[index][2]).read_text())
        except (OSError, ValueError) as exc:
            return [f"spectrum: unreadable output: {exc}"]
        return self.check_doc(index, doc)

    def solve(self, outdir):
        return [zone_report(cfg, ZONE_ORDER, e_max) for cfg, e_max, _ in self.jobs]

    def check_solve(self, result, outdir):
        # the library report is what the CLI serialises; round-trip it the same way
        return [f for i, doc in enumerate(result)
                for f in self.check_doc(i, json.loads(json.dumps(doc)))]

    def energies(self, outdir):
        """The scan's energies: a uniform grid over every searched zone."""
        pairs = []
        for cfg, e_max, _ in self.jobs:
            for zone in ZONE_ORDER:
                lo, hi = zone_interval(zone, cfg)
                hi = min(hi, e_max)
                pairs += [(float(e), cfg) for e in np.linspace(lo, hi, 2002)[1:-1]]
        return pairs

    def found(self, outdir):
        return sum(len(z["resonances"])
                   for _, _, name in self.jobs
                   for z in json.loads((outdir / name).read_text())["zones"])


class Verify(Workload):
    name = "verify"
    samples = 10_000
    verdict = "all invariants hold"

    def argvs(self, outdir):
        return [["verify", *potential_args(REFERENCE), "--samples", str(self.samples),
                 "--seed", str(self.seed)]]

    def check_text(self, text, what):
        lines = text.strip().splitlines()
        if not lines or lines[-1] != self.verdict:
            return [f"{what}: last line is not '{self.verdict}'"]
        if f"samples: {self.samples} seed: {self.seed} " not in text:
            return [f"{what}: wrong sample count or seed"]
        return []

    def check_process(self, index, outdir, stdout):
        return self.check_text(stdout, "verify stdout")

    def solve(self, outdir):
        return run_verification(REFERENCE, samples=self.samples, seed=self.seed)

    def check_solve(self, result, outdir):
        if not result.passed:
            return ["run_verification: report did not pass"]
        return self.check_text(result.render(), "run_verification")

    def energies(self, outdir):
        return [(e, REFERENCE) for e in sample_energies(REFERENCE, self.samples, self.seed)]


class Sweep(Workload):
    name = "sweep"
    frames = 21
    points = 2000
    workers = 2
    start, stop = 1.0, 3.0

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.e_min, self.e_max = jittered_window(seed)
        self.configs = tuple(
            PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=3.0, a_minus=float(v))
            for v in np.linspace(self.start, self.stop, self.frames))

    def _argv(self, outdir, workers):
        return ["sweep", *potential_args(REFERENCE), "--param", "a-minus",
                "--from", repr(self.start), "--to", repr(self.stop),
                "--frames", str(self.frames), "--points", str(self.points),
                "--e-min", repr(self.e_min), "--e-max", repr(self.e_max),
                "--threads", str(workers), "--out-dir", str(outdir / "sweep")]

    def argvs(self, outdir):
        return [self._argv(outdir, self.workers)]

    def traced_argvs(self, outdir):
        # spans recorded inside pool workers are lost, so the traced run is serial
        return [self._argv(outdir, 1)]

    def check_dir(self, folder: Path, what: str) -> list[str]:
        try:
            manifest = json.loads((folder / "manifest.json").read_text())
        except (OSError, ValueError) as exc:
            return [f"{what}: unreadable manifest: {exc}"]
        names = [f"frame_{i:04d}.csv" for i in range(self.frames)]
        values = [float(f"{v:.12g}") for v in np.linspace(self.start, self.stop, self.frames)]
        if [f.get("file") for f in manifest.get("frames", ())] != names:
            return [f"{what}: manifest lists the wrong frames"]
        if [f["value"] for f in manifest["frames"]] != values:
            return [f"{what}: manifest lists the wrong swept values"]
        if sorted(p.name for p in folder.iterdir()) != sorted(names + ["manifest.json"]):
            return [f"{what}: unexpected files in the output directory"]
        failures = []
        for name in names:
            try:
                table = read_curve(folder / name)
            except (OSError, ValueError) as exc:
                failures.append(f"{what}: unreadable {name}: {exc}")
                continue
            if table.shape != (self.points, 7):
                failures.append(f"{what}: {name} has {table.shape[0]} rows")
                continue
            failures += check_flux(table, f"{what} {name}")
        return failures

    def check_process(self, index, outdir, stdout):
        return self.check_dir(outdir / "sweep", "sweep")

    def solve(self, outdir):
        return run_sweep(REFERENCE, "a-minus", self.start, self.stop, self.frames,
                         outdir / "sweep", self.e_min, self.e_max, self.points,
                         workers=self.workers)

    def check_solve(self, result, outdir):
        return self.check_dir(outdir / "sweep", "run_sweep")

    def energies(self, outdir):
        pairs = []
        for name, cfg in zip(sorted((outdir / "sweep").glob("frame_*.csv")), self.configs):
            pairs += [(float(e), cfg) for e in read_curve(name)[:, 0]]
        return pairs


WORKLOADS = {w.name: w for w in (Curve, Spectrum, Verify, Sweep)}
