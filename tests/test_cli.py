import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from dirac_double_barrier import cli
from dirac_double_barrier.cli import main
from frozen_values import CONVENTIONAL_ENERGIES

REF_FLAGS = ["--v-plus", "8", "--v-minus", "4", "--a-plus", "3", "--a-minus", "2.5"]


def _run_transmission(path, extra=()):
    return main([
        "transmission", *REF_FLAGS,
        "--e-min", "1.05", "--e-max", "11.5", "--points", "300",
        "--out", str(path), *extra,
    ])


def test_transmission_writes_csv(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert _run_transmission(out) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "E,T2,R2,reT,imT,reR,imR"
    assert len(lines) == 301
    energies = [float(line.split(",")[0]) for line in lines[1:]]
    assert energies == sorted(energies)
    stdout = capsys.readouterr().out
    assert "wrote 300 rows" in stdout
    assert "zone conventional: (7, 9)" in stdout
    assert "zone above-barrier: (9, inf)" in stdout


def test_transmission_output_is_reproducible(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert _run_transmission(first) == 0
    assert _run_transmission(second) == 0
    assert first.read_bytes() == second.read_bytes()


def test_transmission_workers_agree_with_serial(tmp_path):
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert _run_transmission(serial) == 0
    assert _run_transmission(parallel, ["--threads", "2"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_transmission_svg(tmp_path):
    out = tmp_path / "curve.csv"
    svg_a = tmp_path / "a.svg"
    svg_b = tmp_path / "b.svg"
    assert _run_transmission(out, ["--svg", str(svg_a)]) == 0
    assert _run_transmission(out, ["--svg", str(svg_b)]) == 0
    text = svg_a.read_text()
    assert text.startswith("<svg")
    assert "<polyline" in text
    assert svg_a.read_bytes() == svg_b.read_bytes()


def test_transmission_grid_dodges_degenerate_energies(tmp_path):
    out = tmp_path / "curve.csv"
    code = main(["transmission", *REF_FLAGS, "--e-min", "1.5", "--e-max", "4.5",
                 "--points", "7", "--out", str(out)])
    assert code == 0
    energies = [float(line.split(",")[0])
                for line in out.read_text().splitlines()[1:]]
    for bad in (3.0, 4.0):
        assert min(abs(e - bad) for e in energies) >= 9.99e-7


def test_resonance_report(tmp_path, capsys):
    out = tmp_path / "res.json"
    code = main(["resonances", *REF_FLAGS, "--e-max", "11", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == 1
    assert report["config"]["a_minus"] == 2.5
    names = [z["name"] for z in report["zones"]]
    assert names == ["lower-klein", "gap-lower", "higher-klein",
                     "conventional", "above-barrier"]
    counts = [len(z["resonances"]) for z in report["zones"]]
    assert counts == [7, 0, 4, 4, 8]
    stdout = capsys.readouterr().out
    assert "conventional: 4 resonances" in stdout


@pytest.mark.parametrize("a_minus, zones, edge", [
    ("2.2632220631144735", [], 8.0),
    ("0.2216255059240653", ["--zone", "gap-lower"], 4.0),
], ids=["v_plus", "v_minus"])
def test_resonances_with_a_root_on_a_range_edge_exit_0(a_minus, zones, edge, tmp_path, capsys):
    out = tmp_path / "res.json"
    argv = ["resonances", "--v-plus", "8", "--v-minus", "4", "--a-plus", "3",
            "--a-minus", a_minus, *zones, "--out", str(out)]
    assert main(argv) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert edge in [r["energy"] for z in report["zones"] for r in z["resonances"]]


@pytest.mark.parametrize("command", [
    ["transmission", "--out", "curve.csv"],
    ["sweep", "--param", "a-minus", "--from", "1", "--to", "2", "--frames", "2"],
], ids=["transmission", "sweep"])
def test_a_window_inside_one_band_exits_2(command, tmp_path, monkeypatch, capsys):
    # every grid point would be nudged out of (v_plus - 4e-7, v_plus + 4e-7)
    monkeypatch.chdir(tmp_path)
    argv = [command[0], *REF_FLAGS, *command[1:],
            "--e-min", "7.9999996", "--e-max", "8.0000004", "--points", "5"]
    assert main(argv) == 2
    assert "excluded energy 8;" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_resonance_zone_selection(tmp_path):
    out = tmp_path / "conv.json"
    code = main(["resonances", *REF_FLAGS, "--zone", "conventional",
                 "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert [z["name"] for z in report["zones"]] == ["conventional"]
    got = [r["energy"] for r in report["zones"][0]["resonances"]]
    assert got == pytest.approx(list(CONVENTIONAL_ENERGIES), abs=1e-9)


def test_config_file_with_flag_override(tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "mass": 1.0, "v_plus": 8.0, "v_minus": 4.0,
        "a_plus": 1.0, "a_minus": 2.5,
    }))
    out = tmp_path / "res.json"
    code = main(["resonances", "--config", str(cfg_file),
                 "--a-plus", "3", "--zone", "conventional", "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["config"]["a_plus"] == 3.0
    got = [r["energy"] for r in report["zones"][0]["resonances"]]
    assert got == pytest.approx(list(CONVENTIONAL_ENERGIES), abs=1e-9)


@pytest.mark.parametrize("argv", [
    ["transmission"],                                        # no potential at all
    ["transmission", "--v-plus", "8", "--v-minus", "4"],     # widths missing
    ["resonances", *REF_FLAGS, "--zone", "nowhere"],         # bad choice
    ["resonances", *REF_FLAGS, "--zone", "above-barrier", "--e-max", "8.5"],
    ["transmission", *REF_FLAGS, "--e-min", "0.5"],          # below threshold
    ["transmission", *REF_FLAGS, "--points", "1"],
    ["sweep", *REF_FLAGS, "--param", "a-minus", "--from", "2", "--to", "1",
     "--frames", "3"],
    ["sweep", *REF_FLAGS, "--param", "a-minus", "--from", "1", "--to", "2",
     "--frames", "1"],
    ["nonsense"],
    ["transmission", *REF_FLAGS, "--threads", "0"],
    # the whole window lies in the rejection band around E = v_minus - m
    ["verify", *REF_FLAGS, "--e-min", "2.9999999", "--e-max", "3.0000001"],
    ["verify", *REF_FLAGS, "--samples", "0"],
    # non-finite windows
    ["transmission", *REF_FLAGS, "--e-max", "inf"],
    ["sweep", *REF_FLAGS, "--param", "a-minus", "--from", "1", "--to", "2",
     "--frames", "2", "--e-max", "inf"],
    ["resonances", *REF_FLAGS, "--e-max", "inf"],
    ["verify", *REF_FLAGS, "--e-max", "inf"],
    # the whole window lies in the band around the range edge E = v_minus
    ["verify", *REF_FLAGS, "--e-min", "3.9999995", "--e-max", "4.0000005"],
    ["sweep", *REF_FLAGS, "--param", "a-minus", "--from", "1", "--to", "2",
     "--frames", "2", "--threads", "0"],
])
def test_usage_errors_exit_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command, target", [
    (["transmission", "--out", "{missing}/curve.csv"], "{missing}/curve.csv"),
    (["transmission", "--out", "curve.csv", "--svg", "{missing}/curve.svg"],
     "{missing}/curve.svg"),
    (["resonances", "--zone", "conventional", "--out", "{missing}/res.json"],
     "{missing}/res.json"),
    (["verify", "--samples", "50", "--out", "{missing}/report.txt"],
     "{missing}/report.txt"),
    (["sweep", "--param", "a-minus", "--from", "1", "--to", "2", "--frames", "2",
      "--points", "20", "--out-dir", "{file}"], "{file}"),
], ids=["transmission-out", "transmission-svg", "resonances-out", "verify-out",
        "sweep-out-dir-is-a-file"])
def test_unwritable_output_exits_2(command, target, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a-file").write_text("")
    fill = {"missing": str(tmp_path / "missing"), "file": str(tmp_path / "a-file")}
    argv = [command[0], *REF_FLAGS, *(arg.format(**fill) for arg in command[1:])]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ")
    assert target.format(**fill) in err
    assert not (tmp_path / "missing").exists()
    assert (tmp_path / "a-file").read_text() == ""


@pytest.mark.parametrize("command", [
    ["transmission", "--out", "curve.csv", "--svg", "{missing}/curve.svg"],
    ["verify", "--out", "{missing}/report.txt"],
], ids=["transmission-svg", "verify-out"])
def test_unwritable_output_is_refused_before_any_work(command, tmp_path, monkeypatch, capsys):
    # every output path is checked first: no CSV is left behind, and
    # verify runs none of its 10,000 default samples
    monkeypatch.chdir(tmp_path)
    argv = [command[0], *REF_FLAGS,
            *(arg.format(missing=tmp_path / "missing") for arg in command[1:])]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot write ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", [
    ["transmission", "--points", "{n}", "--out", "curve.csv"],
    ["resonances", "--grid-points", "{n}", "--out", "res.json"],
    ["sweep", "--param", "a-minus", "--from", "1", "--to", "2", "--frames", "{n}",
     "--points", "20", "--out-dir", "frames"],
    ["sweep", "--param", "a-minus", "--from", "1", "--to", "2", "--frames", "2",
     "--points", "{n}", "--out-dir", "frames"],
    ["verify", "--samples", "{n}"],
], ids=["transmission-points", "resonances-grid-points", "sweep-frames", "sweep-points",
        "verify-samples"])
def test_oversized_request_exits_2(command, tmp_path, monkeypatch, capsys):
    # 10**17 doubles (711 PiB) exceed even a 57-bit virtual address space,
    # so the allocation fails at once on any host and touches no memory
    monkeypatch.chdir(tmp_path)
    argv = [command[0], *REF_FLAGS, *(arg.format(n=10**17) for arg in command[1:])]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: not enough memory: ")
    assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("epoch", ["abc", "99999999999999999"],
                         ids=["not-an-integer", "out-of-range"])
def test_bad_source_date_epoch_exits_2(epoch, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    outdir = tmp_path / "frames"
    argv = ["sweep", *REF_FLAGS, "--param", "a-minus", "--from", "1", "--to", "2",
            "--frames", "2", "--points", "20", "--out-dir", str(outdir)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: SOURCE_DATE_EPOCH must be an integer")
    assert repr(epoch) in err
    assert not outdir.exists()


def test_thick_barrier_curve_exits_0(tmp_path, monkeypatch, capsys):
    # a_plus = 400 overflows the transfer-matrix product; scatter stays bounded
    monkeypatch.chdir(tmp_path)
    flags = ["--v-plus", "8", "--v-minus", "4", "--a-plus", "400", "--a-minus", "2.5"]
    assert main(["transmission", *flags, "--points", "2000", "--out", "c.csv"]) == 0
    capsys.readouterr()
    rows = (tmp_path / "c.csv").read_text().splitlines()
    assert len(rows) == 2001
    for row in rows[1:]:
        _, t2, r2, *_ = map(float, row.split(","))
        assert abs(t2 + r2 - 1.0) < 1e-10


def test_config_file_problems_exit_2(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["verify", "--config", str(missing)]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "--config", str(bad)]) == 2
    extra = tmp_path / "extra.json"
    extra.write_text(json.dumps({"v_plus": 8, "v_minus": 4, "a_plus": 3,
                                 "a_minus": 2.5, "color": "red"}))
    assert main(["verify", "--config", str(extra)]) == 2
    capsys.readouterr()
    for key, value in (("v_plus", None), ("a_plus", [3]), ("mass", {"m": 1}),
                       ("a_minus", "wide"), ("a_minus", "2.5"), ("v_minus", True),
                       ("v_plus", 10**400)):
        doc = {"v_plus": 8, "v_minus": 4, "a_plus": 3, "a_minus": 2.5, key: value}
        not_a_number = tmp_path / f"{key}.json"
        not_a_number.write_text(json.dumps(doc))
        assert main(["verify", "--config", str(not_a_number)]) == 2
        assert f"config value {key} must be a number" in capsys.readouterr().err


def test_invalid_structure_exits_3(capsys):
    argv = ["transmission", "--v-plus", "8", "--v-minus", "1",
            "--a-plus", "3", "--a-minus", "2.5"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "invalid configuration" in err


@pytest.mark.parametrize("flag", ["--a-plus", "--v-plus"])
def test_infinite_parameter_exits_3(flag, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["transmission", *REF_FLAGS, flag, "inf"]
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert f"invalid configuration: {flag[2:].replace('-', '_')} must be finite" in err
    assert list(tmp_path.iterdir()) == []


def test_infinite_parameter_in_config_file_exits_3(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    # 1e400 overflows to inf when the JSON is read
    cfg_file.write_text('{"v_plus": 8, "v_minus": 4, "a_plus": 3, "a_minus": 1e400}')
    assert main(["verify", "--config", str(cfg_file)]) == 3
    assert "a_minus must be finite" in capsys.readouterr().err


def test_sweep_cli(tmp_path):
    outdir = tmp_path / "frames"
    code = main(["sweep", *REF_FLAGS, "--param", "a-minus",
                 "--from", "1.0", "--to", "1.2", "--frames", "3",
                 "--e-min", "1.05", "--e-max", "11", "--points", "40",
                 "--out-dir", str(outdir)])
    assert code == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["param"] == "a-minus"
    assert len(manifest["frames"]) == 3
    for frame in manifest["frames"]:
        assert (outdir / frame["file"]).exists()


def test_sweep_workers_agree_with_serial(tmp_path):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    base = ["sweep", *REF_FLAGS, "--param", "a-plus",
            "--from", "1.0", "--to", "1.5", "--frames", "3",
            "--e-min", "1.05", "--e-max", "11", "--points", "40"]
    assert main([*base, "--out-dir", str(serial)]) == 0
    assert main([*base, "--out-dir", str(parallel), "--threads", "2"]) == 0
    for name in ("frame_0000.csv", "frame_0001.csv", "frame_0002.csv"):
        assert (serial / name).read_bytes() == (parallel / name).read_bytes()


def test_sweep_with_resonance_reports(tmp_path):
    outdir = tmp_path / "frames"
    code = main(["sweep", *REF_FLAGS, "--param", "a-minus",
                 "--from", "1.0", "--to", "1.1", "--frames", "2",
                 "--e-min", "1.05", "--e-max", "8.5", "--points", "20",
                 "--with-resonances", "--out-dir", str(outdir)])
    assert code == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    for frame in manifest["frames"]:
        report = json.loads((outdir / frame["resonances"]).read_text())
        names = [z["name"] for z in report["zones"]]
        assert "above-barrier" not in names  # window ends below that zone
        assert report["schema"] == 1


def test_verify_cli_passes(capsys):
    assert main(["verify", *REF_FLAGS, "--samples", "300", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "all invariants hold" in out


def test_verify_samples_a_window_beside_a_band(capsys):
    # only 1e-13 of the window lies outside the band around E = v_minus;
    # draws in the band move to its edge, as grid points do
    argv = ["verify", *REF_FLAGS, "--samples", "100",
            "--e-min", repr(4.0 - 1e-6 - 1e-13), "--e-max", "4.0000005"]
    assert main(argv) == 0
    assert "all invariants hold" in capsys.readouterr().out


def test_verify_report_is_deterministic(capsys):
    assert main(["verify", *REF_FLAGS, "--samples", "100", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", *REF_FLAGS, "--samples", "100", "--seed", "7"]) == 0
    assert capsys.readouterr().out == first


def test_verify_cli_reports_failure(tmp_path, capsys):
    out_file = tmp_path / "report.txt"
    code = main(["verify", *REF_FLAGS, "--samples", "50",
                 "--tolerance", "1e-22", "--out", str(out_file)])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "FAILED:" in out
    assert out_file.read_text().count("FAIL") >= 2


@pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1"])
def test_verify_rejects_a_meaningless_tolerance(tolerance, tmp_path, capsys):
    out_file = tmp_path / "report.txt"
    code = main(["verify", *REF_FLAGS, "--samples", "50",
                 f"--tolerance={tolerance}", "--out", str(out_file)])
    assert code == 2
    captured = capsys.readouterr()
    assert "tolerance must be positive and finite" in captured.err
    assert captured.out == ""
    assert not out_file.exists()


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dirac_double_barrier", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "transmission" in proc.stdout


@pytest.mark.parametrize("code", [0, 1, 2, 3])
def test_run_freezes_the_collector_once_main_has_returned(code, monkeypatch):
    events = []

    def fake_main():
        events.append("main")
        return code

    monkeypatch.setattr(cli, "main", fake_main)
    monkeypatch.setattr(gc, "freeze", lambda: events.append("freeze"))
    with pytest.raises(SystemExit) as exc:
        cli.run()
    assert exc.value.code == code
    assert events == ["main", "freeze"]


_SCALED_BY_1E200 = ["--mass", "1e200", "--v-plus", "8e200", "--v-minus", "4e200",
                    "--a-plus", "3e-200", "--a-minus", "2.5e-200"]


def _files(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("argv, code", [
    # 600 rows cross the CSV writer's 512-row block edge
    (["transmission", *REF_FLAGS, "--points", "600", "--svg", "curve.svg"], 0),
    (["resonances", *REF_FLAGS, "--zone", "all"], 0),
    (["sweep", *REF_FLAGS, "--param", "a-minus", "--from", "1", "--to", "2",
      "--frames", "2", "--points", "600", "--with-resonances"], 0),
    (["verify", *REF_FLAGS, "--samples", "500", "--seed", "1"], 0),
    (["transmission", *_SCALED_BY_1E200], 1),
    (["transmission", *REF_FLAGS, "--e-min", "7.9999996", "--e-max", "8.0000004",
      "--points", "5"], 2),
    (["transmission", *REF_FLAGS, "--v-plus", "5"], 3),
], ids=["transmission-svg", "resonances-all", "sweep-with-resonances", "verify",
        "mass-1e200-exits-1", "band-window-exits-2", "v-plus-5-exits-3"])
def test_a_process_exits_and_writes_as_main_does(argv, code, tmp_path, monkeypatch, capsys):
    # a process ends through run, which freezes the collector: every output
    # must be complete and closed by then, and -X dev reports a file left
    # open as a ResourceWarning.  Outputs take their default, relative
    # paths, so stdout names the same paths in both directories.
    in_process, child = tmp_path / "main", tmp_path / "process"
    in_process.mkdir()
    child.mkdir()
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    monkeypatch.chdir(in_process)
    assert main(argv) == code
    stdout = capsys.readouterr().out
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "dirac_double_barrier", *argv],
        cwd=child, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == code
    assert proc.stdout == stdout
    assert "ResourceWarning" not in proc.stderr
    assert _files(child) == _files(in_process)
