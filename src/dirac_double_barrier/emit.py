"""Curve, report and sweep emission with stable text formats.

Formats are part of the contract: the CSV header and 12-significant-digit
cell format never change without a schema bump, and JSON documents carry
an explicit "schema" field.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .core import ZONE_ORDER, PotentialConfig, Zone, nudge, zone_interval
from .resonance import (
    SearchSettings,
    attach_widths,
    find_above_barrier,
    find_resonances,
)
from .transfer import ScatteringResult, scatter

SCHEMA_VERSION = 1
CSV_HEADER = "E,T2,R2,reT,imT,reR,imR"

#: Swept parameter names accepted by run_sweep, as spelled on the CLI.
SWEEP_PARAMS = ("a-minus", "a-plus")


def admissible_grid(cfg: PotentialConfig, e_min: float, e_max: float,
                    points: int) -> np.ndarray:
    """Uniform energy grid nudged off the special energies."""
    if not (math.isfinite(e_min) and math.isfinite(e_max)):
        raise ValueError(f"the energy window must be finite, got ({e_min}, {e_max})")
    if not e_min > cfg.m:
        raise ValueError(
            f"e_min must exceed the threshold m = {cfg.m:g}, got {e_min}"
        )
    if not e_max > e_min:
        raise ValueError("e_max must exceed e_min")
    if points < 2:
        raise ValueError(f"points must be at least 2, got {points}")
    return nudge(np.linspace(e_min, e_max, points), cfg)


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


def transmission_rows(cfg: PotentialConfig, e_min: float, e_max: float,
                      points: int, workers: int = 1) -> list[ScatteringResult]:
    """Scattering results over the admissible grid, one per grid point.

    The whole grid goes through one array evaluation.  workers is
    validated but otherwise ignored; it is kept for compatibility.
    """
    _check_workers(workers)
    grid = admissible_grid(cfg, e_min, e_max, points)
    batch = scatter(grid, cfg)
    columns = (batch.e, batch.t, batch.r, batch.t2, batch.r2,
               batch.matrix_range, batch.zone)
    return [ScatteringResult(*row) for row in zip(*(c.tolist() for c in columns))]


def format_curve_csv(rows: "list[ScatteringResult]") -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(",".join(
            f"{v:.12g}" for v in
            (r.e, r.t2, r.r2, r.t.real, r.t.imag, r.r.real, r.r.imag)
        ))
    return "\n".join(lines) + "\n"


def write_curve_csv(path: "str | Path", rows: "list[ScatteringResult]") -> Path:
    path = Path(path)
    path.write_text(format_curve_csv(rows))
    return path


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
    zone, when asked for, is searched up to e_max.
    """
    if settings is None:
        settings = SearchSettings()
    wanted = [z for z in ZONE_ORDER if z in set(zones)]
    if not wanted:
        raise ValueError("zones must be nonempty")
    bounded = [z for z in wanted if z is not Zone.ABOVE_BARRIER]
    resonances = find_resonances(cfg, bounded, settings) if bounded else []
    if Zone.ABOVE_BARRIER in wanted:
        resonances += find_above_barrier(cfg, e_max, settings)
    resonances = attach_widths(resonances, cfg, settings)

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
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def _created() -> str:
    """Manifest timestamp, from SOURCE_DATE_EPOCH when set so reruns match."""
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    when = (datetime.fromtimestamp(int(epoch), timezone.utc) if epoch
            else datetime.now(timezone.utc))
    return when.isoformat(timespec="seconds")


def run_sweep(cfg: PotentialConfig, param: str, start: float, stop: float,
              frames: int, outdir: "str | Path", e_min: float, e_max: float,
              points: int, with_resonances: bool = False,
              settings: SearchSettings | None = None,
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
    _check_workers(workers)
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
            rows = transmission_rows(frame_cfg, e_min, e_max, points)
            written.append(write_curve_csv(outdir / name, rows))
            entry = {"value": _sig12(float(value)), "file": name}
            if with_resonances:
                rname = f"frame_{i:04d}_resonances.json"
                zones = list(ZONE_ORDER)
                if e_max <= frame_cfg.v_plus + frame_cfg.m:
                    zones.remove(Zone.ABOVE_BARRIER)
                written.append(write_json(
                    outdir / rname,
                    zone_report(frame_cfg, zones, e_max, settings),
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
