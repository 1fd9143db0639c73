"""Command-line front end.

Subcommands
-----------
transmission   |T|^2 curve over an energy window, written as CSV
resonances     zone-by-zone resonance report, written as JSON
sweep          one curve per value of a swept width, plus a manifest
verify         randomized invariant suite

Exit codes: 0 success, 1 failed verification or computation, 2 usage
error, 3 invalid potential configuration.
"""

from __future__ import annotations

import argparse
import errno
import gc
import math
import os
import sys
from pathlib import Path

from . import _lazy_attributes
from .core import ZONE_ORDER, PotentialConfig, Zone, check_window, zone_interval
from .defaults import (
    CURVE_E_MIN,
    DEFAULT_SAMPLES,
    DEFAULT_TOLERANCE,
    E_MAX_ABOVE_V_PLUS,
    GRID_POINTS_PER_ZONE,
    RESONANCE_E_MAX_ABOVE_V_PLUS,
    SWEEP_PARAMS,
    VERIFY_E_MIN,
    window,
)
from .errors import ConfigError, DoubleBarrierError

# each layer loads when a handler first calls into it, so a subcommand
# compiles only the layers it runs; a handler checks its window
# (core.check_window) before that, so a refused window loads no numpy.
# transmission_rows is called by no handler, but the benchmark tracer
# (perfbench/tracing.py) wraps the name cli.transmission_rows, so it
# resolves too.
__getattr__ = _lazy_attributes(globals(), {
    "emit": ("run_sweep", "transmission_curve", "transmission_rows",
             "write_curve_csv", "write_json", "zone_report"),
    "svg": ("render_curve_svg",),
    "verify": ("run_verification",),
})
#: This module: handlers call the names above through it, so a
#: replacement set on the module is the one that runs.
_module = sys.modules[__name__]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_CONFIG = 3

_CONFIG_KEYS = ("mass", "v_plus", "v_minus", "a_plus", "a_minus")
_ZONE_CHOICES = tuple(z.value for z in ZONE_ORDER) + ("all",)


class UsageError(Exception):
    """Bad flag combination or value, reported with exit code 2."""


def _add_potential_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("potential")
    group.add_argument("--v-plus", type=float, help="barrier height")
    group.add_argument("--v-minus", type=float, help="floor height")
    group.add_argument("--a-plus", type=float, help="width of each barrier")
    group.add_argument("--a-minus", type=float, help="half-width of the floor")
    group.add_argument("--mass", type=float, help="fermion mass (default 1)")
    group.add_argument("--config", metavar="PATH",
                       help="JSON file with keys mass, v_plus, v_minus, "
                            "a_plus, a_minus; flags override it")


def _build_config(args: argparse.Namespace) -> PotentialConfig:
    values: dict = {"mass": 1.0}
    if args.config:
        import json

        try:
            data = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(data, dict):
            raise UsageError("config file must hold a JSON object")
        unknown = sorted(set(data) - set(_CONFIG_KEYS))
        if unknown:
            raise UsageError(
                f"unknown config keys {unknown}; expected {list(_CONFIG_KEYS)}"
            )
        values.update(data)
    for key in _CONFIG_KEYS:
        flag_value = getattr(args, key)
        if flag_value is not None:
            values[key] = flag_value
    missing = [k for k in ("v_plus", "v_minus", "a_plus", "a_minus")
               if k not in values]
    if missing:
        raise UsageError(
            "missing potential parameters: "
            + ", ".join("--" + k.replace("_", "-") for k in missing)
        )
    numbers = {key: _number(key, values[key]) for key in _CONFIG_KEYS}
    return PotentialConfig(m=numbers.pop("mass"), **numbers)


def _number(key: str, value) -> float:
    """A config value as a float; anything but a JSON number is refused."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise UsageError(f"config value {key} must be a number, got {value!r}")


def _check_threads(args: argparse.Namespace) -> None:
    # --threads does nothing, but a value below 1 stays a usage error
    if args.threads < 1:
        raise UsageError(f"--threads must be at least 1, got {args.threads}")


def _check_outputs(*paths: "str | Path | None") -> None:
    """Raise the OSError that writing each given path would, before any work.

    A missing or unwritable directory, or a path naming a directory,
    then exits 2 with nothing computed and nothing written.
    """
    for path in map(Path, filter(None, paths)):
        if not path.parent.is_dir():
            code = errno.ENOENT
        elif path.is_dir():
            code = errno.EISDIR
        elif not os.access(path if path.exists() else path.parent, os.W_OK):
            code = errno.EACCES
        else:
            continue
        raise OSError(code, os.strerror(code), str(path))


def _expand_zones(selected: "list[str] | None") -> list[Zone]:
    if not selected:
        selected = ["all"]
    if "all" in selected:
        return list(ZONE_ORDER)
    by_value = {z.value: z for z in ZONE_ORDER}
    picked = {by_value[name] for name in selected}
    return [z for z in ZONE_ORDER if z in picked]


def _cmd_transmission(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    _check_threads(args)
    e_min, e_max = window(cfg, args.e_min, args.e_max, CURVE_E_MIN)
    out = Path(args.out or "transmission.csv")
    _check_outputs(out, args.svg)
    check_window(cfg, e_min, e_max)
    curve = _module.transmission_curve(cfg, e_min, e_max, args.points)
    out = _module.write_curve_csv(out, curve)
    print(f"wrote {len(curve.e)} rows to {out}")
    if args.svg:
        Path(args.svg).write_text(_module.render_curve_svg(curve.e, curve.t2, cfg))
        print(f"wrote {args.svg}")
    for zone in ZONE_ORDER:
        lo, hi = zone_interval(zone, cfg)
        hi_text = "inf" if math.isinf(hi) else f"{hi:.12g}"
        print(f"zone {zone.value}: ({lo:.12g}, {hi_text})")
    return EXIT_OK


def _cmd_resonances(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    zones = _expand_zones(args.zone)
    e_max = args.e_max
    if e_max is None:
        e_max = cfg.v_plus + RESONANCE_E_MAX_ABOVE_V_PLUS * cfg.m
    if Zone.ABOVE_BARRIER in zones and not e_max > cfg.v_plus + cfg.m:
        raise UsageError(
            f"--e-max must exceed v_plus + m = {cfg.v_plus + cfg.m:g} "
            "to search the above-barrier zone"
        )
    out = Path(args.out or "resonances.json")
    _check_outputs(out)
    report = _module.zone_report(cfg, zones, e_max, args.grid_points)
    out = _module.write_json(out, report)
    total = 0
    for entry in report["zones"]:
        n = len(entry["resonances"])
        total += n
        print(f"{entry['name']}: {n} resonance{'s' if n != 1 else ''}")
    print(f"wrote {total} resonances to {out}")
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    _check_threads(args)
    e_min, e_max = window(cfg, args.e_min, args.e_max, CURVE_E_MIN)
    check_window(cfg, e_min, e_max)
    manifest = _module.run_sweep(
        cfg,
        args.param,
        args.start,
        args.stop,
        args.frames,
        args.out_dir,
        e_min,
        e_max,
        args.points,
        with_resonances=args.with_resonances,
    )
    print(f"wrote {len(manifest['frames'])} frames to {args.out_dir}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    _check_outputs(args.out)
    check_window(cfg, *window(cfg, args.e_min, args.e_max, VERIFY_E_MIN))
    report = _module.run_verification(
        cfg,
        samples=args.samples,
        seed=args.seed,
        e_min=args.e_min,
        e_max=args.e_max,
        tolerance=args.tolerance,
    )
    text = report.render()
    print(text)
    if args.out:
        Path(args.out).write_text(text + "\n")
    return EXIT_OK if report.passed else EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dirac-double-barrier",
        description="Scattering on a double square barrier with an elevated floor",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    curve_start = f"window start (default {CURVE_E_MIN:g} m)"
    window_end = f"window end (default v_plus + {E_MAX_ABOVE_V_PLUS:g} m)"

    p_trans = sub.add_parser("transmission", help="write a |T|^2 curve as CSV")
    _add_potential_args(p_trans)
    p_trans.add_argument("--e-min", type=float, help=curve_start)
    p_trans.add_argument("--e-max", type=float, help=window_end)
    p_trans.add_argument("--points", type=int, default=2000,
                         help="grid points (default %(default)s)")
    p_trans.add_argument("--out", metavar="PATH",
                         help="CSV path (default transmission.csv)")
    p_trans.add_argument("--svg", metavar="PATH",
                         help="also render the curve as SVG")
    p_trans.add_argument("--threads", type=int, default=1,
                         help="ignored; kept for compatibility (must be at "
                              "least 1)")
    p_trans.set_defaults(handler=_cmd_transmission)

    p_res = sub.add_parser("resonances", help="write a resonance report as JSON")
    _add_potential_args(p_res)
    p_res.add_argument("--zone", action="append", choices=_ZONE_CHOICES,
                       help="zone to search, repeatable (default all)")
    p_res.add_argument("--e-max", type=float,
                       help="above-barrier cutoff (default v_plus + "
                            f"{RESONANCE_E_MAX_ABOVE_V_PLUS:g} m)")
    p_res.add_argument("--grid-points", type=int, default=GRID_POINTS_PER_ZONE,
                       help="scan points per zone (default %(default)s)")
    p_res.add_argument("--out", metavar="PATH",
                       help="JSON path (default resonances.json)")
    p_res.set_defaults(handler=_cmd_resonances)

    p_sweep = sub.add_parser("sweep", help="curves for a swept width")
    _add_potential_args(p_sweep)
    p_sweep.add_argument("--param", required=True, choices=SWEEP_PARAMS,
                         help="which width to sweep")
    p_sweep.add_argument("--from", dest="start", type=float, required=True,
                         metavar="START", help="first swept value")
    p_sweep.add_argument("--to", dest="stop", type=float, required=True,
                         metavar="STOP", help="last swept value")
    p_sweep.add_argument("--frames", type=int, required=True,
                         help="number of evenly spaced values")
    p_sweep.add_argument("--e-min", type=float, help=curve_start)
    p_sweep.add_argument("--e-max", type=float, help=window_end)
    p_sweep.add_argument("--points", type=int, default=1000,
                         help="grid points per frame (default %(default)s)")
    p_sweep.add_argument("--out-dir", default="sweep", metavar="DIR",
                         help="output directory (default %(default)s)")
    p_sweep.add_argument("--with-resonances", action="store_true",
                         help="also write a resonance report per frame")
    p_sweep.add_argument("--threads", type=int, default=1,
                         help="ignored; kept for compatibility (must be at "
                              "least 1)")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the randomized invariant suite")
    _add_potential_args(p_verify)
    p_verify.add_argument("--samples", type=int, default=DEFAULT_SAMPLES,
                          help="energy samples (default %(default)s)")
    p_verify.add_argument("--seed", type=int, default=0,
                          help="generator seed (default %(default)s)")
    p_verify.add_argument("--e-min", type=float,
                          help=f"window start (default {VERIFY_E_MIN:g} m)")
    p_verify.add_argument("--e-max", type=float, help=window_end)
    p_verify.add_argument("--tolerance", type=float, default=DEFAULT_TOLERANCE,
                          help="worst-deviation bound (default %(default)g)")
    p_verify.add_argument("--out", metavar="PATH",
                          help="also write the report to a file")
    p_verify.set_defaults(handler=_cmd_verify)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed its message; --help exits 0
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        return args.handler(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:  # an output path that cannot be written
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # --points, --grid-points, --frames or --samples too large
        print(f"error: not enough memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DoubleBarrierError as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE


def run() -> None:
    """Exit the process with main's code, freezing the collector first so
    that the collections of interpreter shutdown traverse nothing."""
    code = main()
    gc.freeze()
    raise SystemExit(code)
