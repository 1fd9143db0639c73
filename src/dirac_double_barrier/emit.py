"""Curve, report and sweep emission with stable text formats.

Formats are part of the contract: the CSV header and 12-significant-digit
cell format never change without a schema bump, and JSON documents carry
an explicit "schema" field.

Curves are columnar.  transmission_curve returns one ScatteringResult
whose fields are arrays over the grid, and write_curve_csv writes the
header and then its columns E, |T|^2, |R|^2, Re T, Im T, Re R, Im R as
_printf.csv_blocks formats them, a block of rows at a time, in numpy and
byte for byte as C's printf("%.12g").  Each block goes to the file as it
comes, so the text is never held whole.

run_sweep scans widths only, so the grid's zones, waves and interface
ratios are the same in every frame: it runs scatter's width-free half
(transfer._prepare) once and its width half (transfer._finish) per frame.
Every frame's energy column is that grid, so its CSV cells are formatted
once per sweep (_printf.column_words) and copied into every frame.

transmission_rows splits the same batch into one ScatteringResult per
energy; no emission path needs that view, but library callers that walk
a curve row by row do.  ScatteringResult is a named tuple, so the rows
come from one map over the zipped columns, with no per-row loop in
Python.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from . import _lazy_attributes
from .core import (ZONE_ORDER, PotentialConfig, Zone, _nudge_in_place, check_window,
                   zone_interval)
from .defaults import SWEEP_PARAMS
from .transfer import ScatteringResult, _finish, _prepare, scatter

# the search loads on first use, by zone_report; curves and sweeps
# without resonances never compile it.  attach_widths is unused here, but
# the benchmark tracer (perfbench/tracing.py) wraps emit.attach_widths
__getattr__ = _lazy_attributes(globals(), {
    "resonance": ("SearchSettings", "attach_widths", "find_above_barrier",
                  "find_resonances"),
})
#: This module: zone_report calls the search through it, so a
#: replacement set on the module is the one that runs.
_module = sys.modules[__name__]

SCHEMA_VERSION = 1
CSV_HEADER = "E,T2,R2,reT,imT,reR,imR"


def admissible_grid(cfg: PotentialConfig, e_min: float, e_max: float,
                    points: int) -> np.ndarray:
    """Uniform energy grid nudged off the special energies."""
    check_window(cfg, e_min, e_max)
    if points < 2:
        raise ValueError(f"points must be at least 2, got {points}")
    return _nudge_in_place(np.linspace(e_min, e_max, points), cfg)


def transmission_curve(cfg: PotentialConfig, e_min: float, e_max: float,
                       points: int) -> ScatteringResult:
    """Scattering results over the admissible grid, as one batch of arrays."""
    return scatter(admissible_grid(cfg, e_min, e_max, points), cfg)


def transmission_rows(cfg: PotentialConfig, e_min: float, e_max: float,
                      points: int) -> list[ScatteringResult]:
    """transmission_curve split into one ScatteringResult per grid point.

    The batch's fields are its columns in field order, so each row is
    the named tuple of one entry of every column.  tuple.__new__ builds
    it from the zipped entries directly, skipping the named tuple's
    Python-level __new__, which rebuilds the same tuple from arguments.
    """
    batch = transmission_curve(cfg, e_min, e_max, points)
    row = partial(tuple.__new__, ScatteringResult)
    return list(map(row, zip(*(c.tolist() for c in batch))))


def _csv_columns(curve: ScatteringResult) -> tuple[np.ndarray, ...]:
    return (curve.e, curve.t2, curve.r2, curve.t.real, curve.t.imag,
            curve.r.real, curve.r.imag)


def _write_lines(path: "str | Path", blocks) -> Path:
    """Write the CSV header and then each block of lines to path, and
    remove the file again if that fails."""
    path = Path(path)
    out = path.open("wb")
    try:
        with out:
            out.write(CSV_HEADER.encode() + b"\n")
            out.writelines(blocks)
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    return path


def write_curve_csv(path: "str | Path", curve: ScatteringResult) -> Path:
    """Write the CSV of a batch from transmission_curve to path, one row
    per energy, streamed a block of rows at a time.

    If formatting or writing fails, the file is removed again, so no
    partial CSV is left behind.
    """
    # imported on first use: compiling the formatter and building its
    # tables would add to the peak memory of every command, curve or not
    from ._printf import csv_blocks

    return _write_lines(path, csv_blocks(_csv_columns(curve)))


def _config_dict(cfg: PotentialConfig) -> dict:
    return {
        "m": cfg.m,
        "v_plus": cfg.v_plus,
        "v_minus": cfg.v_minus,
        "a_plus": cfg.a_plus,
        "a_minus": cfg.a_minus,
    }


def _sig12(x: float) -> float:
    return float(f"{x:.12g}")


def zone_report(cfg: PotentialConfig, zones: "list[Zone] | tuple[Zone, ...]",
                e_max: float, settings: SearchSettings | None = None) -> dict:
    """JSON-ready resonance report for the requested zones.

    Bounded zones are searched over their full interval; the open top
    zone, when asked for, is searched up to e_max.  The search fills
    each fwhm from its own scan.
    """
    if settings is None:
        settings = _module.SearchSettings()
    wanted = [z for z in ZONE_ORDER if z in set(zones)]
    if not wanted:
        raise ValueError("zones must be nonempty")
    bounded = [z for z in wanted if z is not Zone.ABOVE_BARRIER]
    resonances = _module.find_resonances(cfg, bounded, settings) if bounded else []
    if Zone.ABOVE_BARRIER in wanted:
        resonances += _module.find_above_barrier(cfg, e_max, settings)

    zone_entries = []
    for zone in wanted:
        lo, hi = zone_interval(zone, cfg)
        if math.isinf(hi):
            hi = e_max
        members = [r for r in resonances if r.zone is zone]
        zone_entries.append({
            "name": zone.value,
            "boundaries": [lo, hi],
            "resonances": [
                {
                    "energy": round(r.energy, 10),
                    "residual": _sig12(r.residual),
                    "fwhm": None if r.fwhm is None else _sig12(r.fwhm),
                    "level": r.level,
                }
                for r in members
            ],
        })
    return {
        "schema": SCHEMA_VERSION,
        "config": _config_dict(cfg),
        "zones": zone_entries,
    }


def write_json(path: "str | Path", doc: dict) -> Path:
    # imported on first use: a curve process writes no JSON
    import json

    path = Path(path)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def _created() -> str:
    """Manifest timestamp, from SOURCE_DATE_EPOCH when set so reruns match."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    if not epoch:
        return datetime.now(timezone.utc).isoformat(timespec="seconds")
    try:
        when = datetime.fromtimestamp(int(epoch), timezone.utc)
    except (ValueError, OverflowError, OSError):
        raise ValueError(
            "SOURCE_DATE_EPOCH must be an integer count of seconds within "
            f"datetime's range, got {epoch!r}"
        ) from None
    return when.isoformat(timespec="seconds")


def run_sweep(cfg: PotentialConfig, param: str, start: float, stop: float,
              frames: int, outdir: "str | Path", e_min: float, e_max: float,
              points: int, with_resonances: bool = False,
              workers: int = 1) -> dict:
    """Emit one transmission curve per swept value plus a manifest.

    The swept parameter takes `frames` evenly spaced values from start to
    stop inclusive while everything else stays fixed.  Frames are computed
    and written one at a time, to outdir as frame_0000.csv,
    frame_0001.csv, ...; anything written is removed again if a later
    frame fails.  workers is validated but otherwise ignored; it is kept
    for compatibility.
    """
    if param not in SWEEP_PARAMS:
        raise ValueError(f"param must be one of {SWEEP_PARAMS}, got {param!r}")
    if frames < 2:
        raise ValueError(f"frames must be at least 2, got {frames}")
    if not stop > start:
        raise ValueError("sweep range must be increasing")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    # the swept widths leave the special energies where they are, so one
    # grid and its width-free half serve every frame; building it first
    # refuses a bad window before anything is written
    prepared = _prepare(admissible_grid(cfg, e_min, e_max, points), cfg)
    from ._printf import column_words, csv_blocks

    # every frame's energy column is the grid: its cells are formatted once
    energies = column_words(prepared[2][0])
    created = _created()
    field = param.replace("-", "_")
    values = np.linspace(start, stop, frames)
    configs = [replace(cfg, **{field: float(v)}) for v in values]

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        manifest_frames = []
        for i, (frame_cfg, value) in enumerate(zip(configs, values)):
            name = f"frame_{i:04d}.csv"
            columns = _csv_columns(_finish(prepared, frame_cfg))
            written.append(_write_lines(outdir / name, csv_blocks(columns, energies)))
            entry = {"value": _sig12(float(value)), "file": name}
            if with_resonances:
                rname = f"frame_{i:04d}_resonances.json"
                zones = list(ZONE_ORDER)
                if e_max <= frame_cfg.v_plus + frame_cfg.m:
                    zones.remove(Zone.ABOVE_BARRIER)
                written.append(write_json(
                    outdir / rname,
                    zone_report(frame_cfg, zones, e_max),
                ))
                entry["resonances"] = rname
            manifest_frames.append(entry)

        fixed = _config_dict(cfg)
        del fixed[field]
        manifest = {
            "schema": SCHEMA_VERSION,
            "param": param,
            "fixed": fixed,
            "window": {"e_min": e_min, "e_max": e_max, "points": points},
            "frames": manifest_frames,
            "created": created,
        }
        written.append(write_json(outdir / "manifest.json", manifest))
        return manifest
    except BaseException:
        for p in written:
            p.unlink(missing_ok=True)
        raise
