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
