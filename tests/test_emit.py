import json
import math

import pytest

from dirac_double_barrier import Zone
from dirac_double_barrier.emit import (
    CSV_HEADER,
    SCHEMA_VERSION,
    admissible_grid,
    format_curve_csv,
    run_sweep,
    transmission_rows,
    zone_report,
)


def test_csv_header_and_shape(reference):
    rows = transmission_rows(reference, 1.05, 11.5, 40)
    text = format_curve_csv(rows)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 41
    assert text.endswith("\n")
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 7
        e, t2, r2, re_t, im_t, re_r, im_r = map(float, cells)
        assert abs(t2 + r2 - 1.0) < 1e-10
        assert abs(t2 - (re_t**2 + im_t**2)) < 1e-10


def test_cells_carry_twelve_significant_digits(reference):
    rows = transmission_rows(reference, 2.0, 2.5, 2)
    line = format_curve_csv(rows).splitlines()[1]
    t2_cell = line.split(",")[1]
    digits = t2_cell.replace("-", "").replace(".", "").lstrip("0")
    assert len(digits.split("e")[0]) == 12


def test_grid_avoids_degenerate_energies(reference):
    grid = admissible_grid(reference, 1.5, 4.5, 7)
    # the raw uniform grid would hit 3.0 and 4.0 exactly
    assert len(grid) == 7
    for bad in (3.0, 4.0):
        assert min(abs(grid - bad)) >= 1e-6 * (1.0 - 1e-12)


@pytest.mark.parametrize("kwargs", [
    dict(e_min=0.5, e_max=4.0, points=10),
    dict(e_min=1.0, e_max=4.0, points=10),
    dict(e_min=2.0, e_max=1.5, points=10),
    dict(e_min=2.0, e_max=4.0, points=1),
    dict(e_min=1.01, e_max=math.inf, points=10),
])
def test_grid_window_validation(reference, kwargs):
    with pytest.raises(ValueError):
        admissible_grid(reference, **kwargs)


def test_zone_report_layout(reference):
    report = zone_report(reference, [Zone.CONVENTIONAL, Zone.LOWER_KLEIN], 11.0)
    assert report["schema"] == SCHEMA_VERSION
    assert report["config"] == {
        "m": 1.0, "v_plus": 8.0, "v_minus": 4.0, "a_plus": 3.0, "a_minus": 2.5,
    }
    names = [z["name"] for z in report["zones"]]
    assert names == ["lower-klein", "conventional"]
    conv = report["zones"][1]
    assert conv["boundaries"] == [7.0, 9.0]
    assert len(conv["resonances"]) == 4
    for i, entry in enumerate(conv["resonances"]):
        assert set(entry) == {"energy", "residual", "fwhm", "level"}
        assert entry["level"] == i
        assert entry["residual"] < 1e-8
        assert entry["fwhm"] > 0.0
    assert json.dumps(report)  # JSON-serializable as-is


def test_zone_report_caps_open_zone(reference):
    report = zone_report(reference, [Zone.ABOVE_BARRIER], 9.6)
    (entry,) = report["zones"]
    assert entry["boundaries"] == [9.0, 9.6]
    assert len(entry["resonances"]) == 3


def test_sweep_writes_frames_and_manifest(reference, tmp_path):
    outdir = tmp_path / "frames"
    manifest = run_sweep(reference, "a-minus", 1.0, 1.2, 3, outdir,
                         e_min=1.05, e_max=11.0, points=30)
    assert manifest["schema"] == SCHEMA_VERSION
    assert manifest["param"] == "a-minus"
    assert manifest["fixed"] == {"m": 1.0, "v_plus": 8.0, "v_minus": 4.0,
                                 "a_plus": 3.0}
    assert [f["value"] for f in manifest["frames"]] == [1.0, 1.1, 1.2]
    assert "created" in manifest
    on_disk = json.loads((outdir / "manifest.json").read_text())
    assert on_disk["frames"] == manifest["frames"]
    for frame in manifest["frames"]:
        lines = (outdir / frame["file"]).read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 31


def test_sweep_is_byte_stable_under_source_date_epoch(reference, tmp_path,
                                                      monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1000000000")
    for name in ("a", "b"):
        manifest = run_sweep(reference, "a-minus", 1.0, 1.2, 3, tmp_path / name,
                             e_min=1.05, e_max=11.0, points=30)
        assert manifest["created"] == "2001-09-09T01:46:40+00:00"
    for path in sorted((tmp_path / "a").iterdir()):
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


def test_sweep_validation(reference, tmp_path):
    with pytest.raises(ValueError):
        run_sweep(reference, "v-plus", 1.0, 2.0, 3, tmp_path, 1.05, 11.0, 10)
    with pytest.raises(ValueError):
        run_sweep(reference, "a-minus", 1.0, 2.0, 1, tmp_path, 1.05, 11.0, 10)
    with pytest.raises(ValueError):
        run_sweep(reference, "a-minus", 2.0, 1.0, 3, tmp_path, 1.05, 11.0, 10)
    with pytest.raises(ValueError):
        run_sweep(reference, "a-minus", 1.0, 2.0, 3, tmp_path, 1.05, 11.0, 10,
                  workers=0)


def test_sweep_cleans_up_after_failure(reference, tmp_path, monkeypatch):
    import dirac_double_barrier.emit as emit

    calls = {"n": 0}
    real = emit.zone_report

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 2:
            raise RuntimeError("forced failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(emit, "zone_report", flaky)
    outdir = tmp_path / "frames"
    with pytest.raises(RuntimeError):
        run_sweep(reference, "a-minus", 1.0, 1.1, 2, outdir,
                  e_min=1.05, e_max=6.0, points=10, with_resonances=True)
    assert list(outdir.iterdir()) == []
