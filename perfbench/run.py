#!/usr/bin/env python3
"""Benchmark of the dirac-double-barrier CLI and library, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload curve --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py): ``curve``, ``spectrum``, ``verify``, ``sweep``.

``--trace 0`` measures with tracing off, for ``--seconds`` seconds, cycling
through a fresh-interpreter import (``setup_s``), the workload's CLI processes
(``wall_s``, ``peak_rss_mb``) and the same job called in process
(``solve_s``, after a garbage collection).  Each metric is the median of
its samples.  A fixed reference kernel is timed between samples, and every
time sample is scaled by the reference kernel time over the mean of the two
kernel times around it, so that drift in the speed of a shared host cancels
(see calibration.py); the summary lines show the medians as measured too.

``--trace 1`` cycles through the CLI processes, ``cli.main`` in process, and
``cli.main`` with spans recorded around every call between layers; then it
times each layer per energy on the workload's own energies and splits the
import time in fresh interpreters.  ``trace.overhead_frac`` compares the
traced and untraced ``cli.main``.  Per-layer times are scaled by the run's
median kernel time.

Every run pins this process and its children to single-threaded BLAS and
OpenMP, so the sweep's two pool workers do not oversubscribe two cores, and
makes one untimed warm-up of the CLI (which also leaves ``__pycache__``
behind, as an installed package has) and of the library job.  Every output
of every CLI process and library call is checked; checks run outside the
timed region.  A CLI process that exits nonzero, misses an output or fails
a check counts as failed.

Outputs go to perfbench/out/.  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# before numpy is imported, here and in every child
os.environ.update({var: "1" for var in THREAD_VARS})

import argparse  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from contextlib import nullcontext, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402
from time import perf_counter  # noqa: E402

import calibration  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: A run stops starting CLI processes and kills a hung one by this many
#: seconds after it began, so it ends well within three minutes.
HARD_STOP_S = 150.0
#: Per-energy costs are taken on this many of the workload's energies.
LAYER_ENERGIES = 1000
IMPORT_RUNS = 3

END_TO_END = {"wall_s": "s", "solve_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Span totals and counts are those of the last traced cli.main; a layer the
# workload never enters reads 0.  emit.pool_speedup is the untraced serial
# time over the time with the workload's pool, and 0 where it has no pool.
# cli.overhead_s is wall_s less one setup_s per CLI process less cli.main_s.
LAYERS = ("cli", "emit", "resonance", "transfer", "oracle", "verify", "svg", "scipy")
PER_LAYER = {
    "import.numpy_s": "s", "import.scipy_s": "s", "import.package_s": "s",
    "core.classify_us": "us", "core.kinematics_us": "us",
    "transfer.factor_matrices_us": "us", "transfer.full_matrix_us": "us",
    "transfer.scatter_us": "us",
    "transfer.scatter_calls": "count", "transfer.full_matrix_calls": "count",
    "resonance.search_s": "s", "resonance.widths_s": "s",
    "resonance.full_matrix_per_resonance": "count",
    "resonance.scatter_per_width": "count",
    "resonance.brentq_calls": "count", "resonance.found": "count",
    "resonance.expected": "count",
    "oracle.solve_amplitudes_us": "us", "oracle.calls": "count",
    "verify.sample_energies_s": "s", "verify.run_s": "s",
    "emit.transmission_rows_s": "s", "emit.csv_write_s": "s",
    "emit.csv_bytes": "bytes", "emit.zone_report_s": "s",
    "emit.json_write_s": "s", "emit.run_sweep_s": "s", "emit.pool_speedup": "ratio",
    "svg.render_s": "s",
    "cli.main_s": "s", "cli.overhead_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_frac": "ratio",
}


class Run:
    """One benchmark run of one workload: processes, samples and failures."""

    def __init__(self, workload, seconds: float):
        self.wl = workload
        self.seconds = seconds
        self.started = perf_counter()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.dir = OUT / workload.name
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}  # as measured
        self.scaled: dict[str, list[float]] = {}  # at the reference host speed
        self.kernels: list[float] = []
        self._open: list[tuple[str, float]] = []

    def calibrate(self) -> None:
        """Time the reference kernel; each time sample taken since the last
        kernel is scaled by the mean of the two kernel times around it."""
        kernel = calibration.kernel_s()
        for name, value in self._open:
            around = (self.kernels[-1] + kernel) / 2
            self.scaled.setdefault(name, []).append(value * calibration.REFERENCE_S / around)
        self._open.clear()
        self.kernels.append(kernel)

    def add(self, name: str, value: float, time: bool = True) -> None:
        self.samples.setdefault(name, []).append(value)
        if time:
            self._open.append((name, value))

    def med(self, name: str) -> float:
        return median(self.scaled.get(name) or self.samples[name])

    def scale(self) -> float:
        """Reference over measured host speed, over the whole run."""
        return calibration.REFERENCE_S / median(self.kernels)

    def folder(self, name: str) -> Path:
        path = self.dir / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir()
        return path

    def spawn(self, argv: list[str]) -> tuple[float, int, float, str]:
        """Wall seconds, exit code, peak RSS in MB and output of one child."""
        log = self.dir / "child.log"
        timeout = max(1.0, HARD_STOP_S - (perf_counter() - self.started))
        with open(log, "wb") as out:
            t0 = perf_counter()
            proc = subprocess.Popen(argv, cwd=self.dir, env=self.env,
                                    stdout=out, stderr=subprocess.STDOUT)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = perf_counter() - t0
        killer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024, log.read_text(errors="replace")

    def cli_argv(self, args: list[str]) -> list[str]:
        return [sys.executable, "-m", "dirac_double_barrier", *args]

    def setup_sample(self) -> None:
        self.calibrate()
        wall, code, _, text = self.spawn([sys.executable, "-c", "import dirac_double_barrier"])
        if code != 0:
            self.problems.append(f"import failed with exit {code}: {text[-300:]}")
        self.add("setup_s", wall)

    def operation(self) -> None:
        """The workload's CLI processes, timed and then checked one by one."""
        self.calibrate()
        outdir = self.folder("cli")
        wall, rss = 0.0, 0.0
        for index, args in enumerate(self.wl.argvs(outdir)):
            seconds, code, peak, text = self.spawn(self.cli_argv(args))
            wall += seconds
            rss = max(rss, peak)
            self.attempted += 1
            failures = ([f"exit code {code}: {text[-300:]}"] if code != 0
                        else self.wl.check_process(index, outdir, text))
            if failures:
                self.failed += 1
                self.problems += failures
        self.add("wall_s", wall)
        self.add("peak_rss_mb", rss, time=False)

    def solve_sample(self) -> None:
        self.calibrate()
        outdir = self.folder("lib")
        gc.collect()
        t0 = perf_counter()
        result = self.wl.solve(outdir)
        self.add("solve_s", perf_counter() - t0)
        self.problems += self.wl.check_solve(result, outdir)

    def main_sample(self, name: str, argvs_for, recorder=None) -> None:
        """cli.main in process for each argument list, untraced or under recorder."""
        from dirac_double_barrier import cli

        self.calibrate()
        outdir = self.folder(name)
        argvs = argvs_for(outdir)
        main = cli.main if recorder is None else recorder.wrap("cli.main", "cli", cli.main)
        codes = []
        gc.collect()
        with redirect_stdout(io.StringIO()), (recorder.installed() if recorder else nullcontext()):
            t0 = perf_counter()
            for argv in argvs:
                codes.append(main(argv))
            self.add(name, perf_counter() - t0)
        if any(codes):
            self.problems.append(f"cli.main exited {codes} in the {name} run")

    def warm_up(self) -> None:
        self.spawn(self.cli_argv(self.wl.argvs(self.folder("cli"))[0]))
        self.wl.solve(self.folder("lib"))

    def until_deadline(self, step) -> None:
        """Repeat step at least twice, and while another round fits in the run's seconds."""
        begin = perf_counter()
        deadline = begin + self.seconds
        rounds = 0
        while rounds < 2 or perf_counter() + (perf_counter() - begin) / rounds <= deadline:
            if perf_counter() - self.started > HARD_STOP_S:
                self.problems.append("run hit its hard stop")
                break
            step()
            rounds += 1
        self.calibrate()


def end_to_end(run: Run) -> dict[str, float]:
    def step():
        run.setup_sample()
        run.operation()
        run.solve_sample()

    run.until_deadline(step)
    return {name: run.med(name) for name in END_TO_END}


def per_layer(run: Run, seed: int) -> tuple[dict[str, float], list]:
    import layers
    import tracing

    wl = run.wl
    serial_differs = wl.traced_argvs(run.dir) != wl.argvs(run.dir)
    recorder = None

    def step():
        nonlocal recorder
        run.setup_sample()
        run.operation()
        run.main_sample("main", wl.argvs)
        if serial_differs:
            run.main_sample("main_traced_args", wl.traced_argvs)
        recorder = tracing.Recorder()
        run.main_sample("traced", wl.traced_argvs, recorder)

    run.until_deadline(step)
    plain = run.med("main_traced_args" if serial_differs else "main")
    found = wl.found(run.dir / "traced")
    per_resonance = (lambda n: n / found) if found else (lambda n: 0.0)
    pairs = layers.admissible(wl.energies(run.dir / "cli"), LAYER_ENERGIES, seed)
    times = {
        **layers.import_breakdown(run.env, run.dir, IMPORT_RUNS),
        **layers.per_energy_us(pairs),
        "resonance.search_s": recorder.total_s("emit.find_resonances",
                                               "emit.find_above_barrier"),
        "resonance.widths_s": recorder.total_s("emit.attach_widths"),
        "verify.sample_energies_s": recorder.total_s("verify.sample_energies"),
        "verify.run_s": recorder.total_s("cli.run_verification"),
        "emit.transmission_rows_s": recorder.total_s("cli.transmission_rows",
                                                     "emit.transmission_rows"),
        "emit.csv_write_s": recorder.total_s("cli.write_curve_csv", "emit.write_curve_csv"),
        "emit.zone_report_s": recorder.total_s("cli.zone_report", "emit.zone_report"),
        "emit.json_write_s": recorder.total_s("cli.write_json", "emit.write_json"),
        "emit.run_sweep_s": recorder.total_s("cli.run_sweep"),
        "svg.render_s": recorder.total_s("cli.render_curve_svg"),
        **{f"{layer}.self_s": own for layer, own in recorder.self_s().items()},
    }
    scale = run.scale()
    metrics = {
        **{f"{layer}.self_s": 0.0 for layer in LAYERS},
        **{name: value * scale for name, value in times.items()},
        "transfer.scatter_calls": recorder.count("emit.scatter", "resonance.scatter"),
        "transfer.full_matrix_calls": recorder.count("resonance.full_matrix",
                                                     "verify.full_matrix"),
        "resonance.full_matrix_per_resonance":
            per_resonance(recorder.count("resonance.full_matrix")),
        "resonance.scatter_per_width": per_resonance(recorder.count("resonance.scatter")),
        "resonance.brentq_calls": recorder.count("resonance.brentq"),
        "resonance.found": found,
        "resonance.expected": wl.expected_count(),
        "oracle.calls": recorder.count("verify.solve_amplitudes"),
        "emit.csv_bytes": sum(p.stat().st_size for p in (run.dir / "traced").rglob("*.csv")),
        "emit.pool_speedup": plain / run.med("main") if serial_differs else 0.0,
        "cli.main_s": run.med("main"),
        "cli.overhead_s": (run.med("wall_s") - len(wl.argvs(run.dir)) * run.med("setup_s")
                           - run.med("main")),
        "trace.overhead_frac": run.med("traced") / plain - 1.0,
    }
    return {name: metrics[name] for name in PER_LAYER}, recorder.spans


def environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "loadavg_start": os.getloadavg(),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("curve", "spectrum", "verify", "sweep"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    needed = (SRC / "dirac_double_barrier" / "__init__.py", ROOT / "tests" / "frozen_values.py")
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"error: run from a checkout of the repository; missing {missing}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    env = environment()
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    run = Run(wl, args.seconds)
    run.warm_up()
    spans = []
    if args.trace:
        values, spans = per_layer(run, args.seed)
        units = PER_LAYER
    else:
        values = end_to_end(run)
        units = END_TO_END
    env["loadavg_end"] = os.getloadavg()
    env["kernel_median_s"] = median(run.kernels)

    counts = {name: len(v) for name, v in run.samples.items()}
    (run.dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps({
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds,
        "environment": env, "samples": run.samples, "scaled": run.scaled,
        "kernels": run.kernels, "metrics": values,
        "problems": run.problems, "spans": spans}))
    for problem in run.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("environment: " + json.dumps(env))
    print(f"host speed: reference kernel median {env['kernel_median_s']:.4f} s of "
          f"{len(run.kernels)}; times are scaled to {calibration.REFERENCE_S} s, "
          "medians as measured in brackets")
    for name, value in values.items():
        n = counts.get(name)
        print(f"{wl.name:9} {name:38} {value:14.6g} {units[name]:6}"
              + (f" [{median(run.samples[name]):.6g} s]" if n and name in run.scaled else "")
              + (f" median of {n}" if n else ""))
    print(f"{wl.name:9} {'fail_frac':38} {run.failed / max(run.attempted, 1):14.6g} "
          f"ratio  {run.failed} of {run.attempted} CLI processes")
    print(json.dumps({
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
