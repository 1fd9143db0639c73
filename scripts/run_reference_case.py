#!/usr/bin/env python3
"""Run the reference double-barrier case end to end.

Writes the transmission curve (CSV and SVG), the per-zone resonance
report with widths (JSON), and the randomized invariant report (text)
into one output directory, and prints a resonance table on the way.
"""

import argparse
from pathlib import Path

from dirac_double_barrier import PotentialConfig, Zone, run_verification
from dirac_double_barrier.emit import (
    transmission_curve,
    write_curve_csv,
    write_json,
    zone_report,
)
from dirac_double_barrier.svg import render_curve_svg

REFERENCE = PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=3.0, a_minus=2.5)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="results", help="output directory")
    ap.add_argument("--points", type=int, default=4000,
                    help="energy grid points for the curve")
    args = ap.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    cfg = REFERENCE
    curve = transmission_curve(cfg, 1.01 * cfg.m, 12.0 * cfg.m, args.points)
    csv_path = write_curve_csv(out / "transmission.csv", curve)
    (out / "transmission.svg").write_text(render_curve_svg(
        curve.e, curve.t2, cfg,
        title="|T|^2 for the reference double barrier",
    ))
    print(f"curve: {csv_path} ({len(curve.e)} rows)")

    report = zone_report(cfg, list(Zone), e_max=11.0 * cfg.m)
    write_json(out / "resonances.json", report)
    print(f"report: {out / 'resonances.json'}")
    for zone in report["zones"]:
        lo, hi = zone["boundaries"]
        print(f"{zone['name']}  ({lo:g}, {hi:g})")
        for res in zone["resonances"]:
            width = ("broad/overlapping" if res["fwhm"] is None
                     else f"fwhm = {res['fwhm']:.6e}")
            print(f"  level {res['level']}:  E = {res['energy']:.10f}  {width}")

    verification = run_verification(cfg, samples=2000, seed=0)
    (out / "verify.txt").write_text(verification.render() + "\n")
    print(verification.render())


if __name__ == "__main__":
    main()
