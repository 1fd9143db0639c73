import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_reference_case_script_writes_every_output(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_reference_case.py"),
         "--out-dir", str(tmp_path), "--points", "400"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    csv = (tmp_path / "transmission.csv").read_text().splitlines()
    assert len(csv) == 401
    assert (tmp_path / "transmission.svg").read_text().startswith("<svg")
    report = json.loads((tmp_path / "resonances.json").read_text())
    assert len(report["zones"]) == 5
    verdict = (tmp_path / "verify.txt").read_text().rstrip().splitlines()[-1]
    assert verdict == "all invariants hold"


def _compare(*paths):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_curves.py"), *map(str, paths)],
        capture_output=True, text=True, timeout=60,
    )


def test_compare_curves_counts_changed_cells(tmp_path):
    old = "E,T2,R2\n1.5,0.25,0.75\n2,0.5,0.5\n3,1,0\n"
    new = "E,T2,R2\n1.5,0.2500000000001,0.75\n2,0.5,0.5\n3,0.999,0.001\n"
    (tmp_path / "old").mkdir()
    (tmp_path / "new").mkdir()
    for side, text in (("old", old), ("new", new)):
        (tmp_path / f"{side}.csv").write_text(text)
        for frame in ("frame_000.csv", "frame_001.csv"):
            (tmp_path / side / frame).write_text(text)
    same = _compare(tmp_path / "old.csv", tmp_path / "old.csv")
    assert same.returncode == 0
    assert same.stdout.splitlines()[-1] == "0 cells changed in 0 of 3 rows"
    one = _compare(tmp_path / "old.csv", tmp_path / "new.csv")
    assert one.returncode == 1
    lines = one.stdout.splitlines()
    assert lines[1].split() == ["E", "0", "0.00e+00"]
    assert lines[2].split() == ["T2", "2", "1.00e-03"]
    assert lines[3].split() == ["R2", "1", "1.00e-03"]
    assert lines[-1] == "3 cells changed in 2 of 3 rows"
    both = _compare(tmp_path / "old", tmp_path / "new")
    assert both.returncode == 1
    assert both.stdout.splitlines()[-1] == "6 cells changed in 4 of 6 rows"
    (tmp_path / "new" / "frame_001.csv").write_text("E,T2,R2\n1.5,0.25,0.75\n")
    short = _compare(tmp_path / "old", tmp_path / "new")
    assert short.returncode == 2 and "row count" in short.stderr


def _compare_reports(*paths):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "compare_reports.py"), *map(str, paths)],
        capture_output=True, text=True, timeout=60,
    )


def _report(*conventional):
    return {"schema": 1, "zones": [
        {"name": "lower-klein", "resonances": [
            {"energy": 1.5, "residual": 1e-15, "fwhm": None, "level": 0}]},
        {"name": "conventional", "resonances": [
            {"energy": e, "residual": res, "fwhm": w, "level": i}
            for i, (e, res, w) in enumerate(conventional)]},
    ]}


def test_compare_reports_counts_changed_values(tmp_path):
    old = _report((7.2, 5.84e-15, 1e-4), (7.7, 2e-15, 3e-4))
    new = _report((7.2, 1.04e-14, 1e-4), (7.7, 2e-15, None))
    (tmp_path / "old").mkdir()
    (tmp_path / "new").mkdir()
    for side, doc in (("old", old), ("new", new)):
        (tmp_path / f"{side}.json").write_text(json.dumps(doc))
        for name in ("frame_0000_resonances.json", "frame_0001_resonances.json"):
            (tmp_path / side / name).write_text(json.dumps(doc))
        (tmp_path / side / "manifest.json").write_text(json.dumps({"frames": [side]}))
    same = _compare_reports(tmp_path / "old.json", tmp_path / "old.json")
    assert same.returncode == 0
    assert same.stdout.splitlines()[-1] == "0 values changed in 0 of 3 resonances"
    one = _compare_reports(tmp_path / "old.json", tmp_path / "new.json")
    assert one.returncode == 1
    rows = {tuple(line.split()[:2]): line.split()[2:] for line in one.stdout.splitlines()[1:-1]}
    assert rows[("lower-klein", "residual")] == ["0", "0.00e+00"]
    assert rows[("conventional", "energy")] == ["0", "0.00e+00"]
    assert rows[("conventional", "residual")] == ["1", "4.56e-15"]
    assert rows[("conventional", "fwhm")] == ["1", "inf"]
    assert rows[("conventional", "level")] == ["0", "0.00e+00"]
    assert one.stdout.splitlines()[-1] == "2 values changed in 2 of 3 resonances"
    both = _compare_reports(tmp_path / "old", tmp_path / "new")
    assert both.returncode == 1
    assert both.stdout.splitlines()[-1] == "4 values changed in 4 of 6 resonances"
    (tmp_path / "new" / "frame_0001_resonances.json").write_text(json.dumps(_report()))
    short = _compare_reports(tmp_path / "old", tmp_path / "new")
    assert short.returncode == 2 and "holds 2 resonances on one side and 0" in short.stderr
    mixed = _compare_reports(tmp_path / "old", tmp_path / "new.json")
    assert mixed.returncode == 2
