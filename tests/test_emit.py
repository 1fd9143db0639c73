import json
import math
import tempfile
import tracemalloc
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dirac_double_barrier import ScatteringResult, Zone, _printf, transfer
from dirac_double_barrier.emit import (
    CSV_HEADER,
    SCHEMA_VERSION,
    admissible_grid,
    run_sweep,
    transmission_curve,
    transmission_rows,
    write_curve_csv,
    zone_report,
)
from dirac_double_barrier.svg import render_curve_svg
from row_emit import format_rows_csv, polyline_points


def _written_csv(batch) -> str:
    """The text write_curve_csv writes for batch."""
    with tempfile.TemporaryDirectory() as tmp:
        return write_curve_csv(Path(tmp) / "curve.csv", batch).read_bytes().decode("ascii")


def test_csv_header_and_shape(reference):
    text = _written_csv(transmission_curve(reference, 1.05, 11.5, 40))
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
    line = _written_csv(transmission_curve(reference, 2.0, 2.5, 2)).splitlines()[1]
    t2_cell = line.split(",")[1]
    digits = t2_cell.replace("-", "").replace(".", "").lstrip("0")
    assert len(digits.split("e")[0]) == 12


def _split(batch):
    columns = (batch.e, batch.t, batch.r, batch.t2, batch.r2,
               batch.matrix_range, batch.zone)
    return [ScatteringResult(*row) for row in zip(*(c.tolist() for c in columns))]


def test_columnar_csv_matches_per_cell_formatter_on_edge_values():
    # every column meets signed zero, a subnormal, both sides of the
    # switch to exponent notation at 1e-4, a 17-digit magnitude, nan and
    # both infinities
    edge = [-0.0, 5e-324, 9.99999999999e-5, 1e-4, 1e16, math.nan, math.inf,
            -math.inf, 0.5, 1.0 / 3.0, -2.5e-7, 123456789012.5]
    col = [np.roll(np.array(edge), k) for k in range(7)]
    t = np.array([complex(a, b) for a, b in zip(col[3], col[4])])
    r = np.array([complex(a, b) for a, b in zip(col[5], col[6])])
    nothing = np.full(len(edge), None, dtype=object)
    batch = ScatteringResult(e=col[0], t=t, r=r, t2=col[1], r2=col[2],
                             matrix_range=nothing, zone=nothing)
    text = _written_csv(batch)
    assert text == format_rows_csv(_split(batch))
    assert "-0," in text and "nan" in text and "-inf" in text


def test_columnar_csv_matches_per_cell_formatter_on_reference_curve(reference):
    batch = transmission_curve(reference, 1.01, 12.0, 20_000)
    assert _written_csv(batch) == format_rows_csv(_split(batch))


def _columns_batch(cells):
    """A batch whose seven CSV columns are the columns of cells (rows, 7)."""
    cells = np.asarray(cells, dtype=float).reshape(-1, 7)
    col = cells.T.copy()
    t, r = np.empty((2, len(cells)), complex)
    t.real, t.imag, r.real, r.imag = col[3:]
    nothing = np.full(len(cells), None, dtype=object)
    return ScatteringResult(e=col[0], t=t, r=r, t2=col[1], r2=col[2],
                            matrix_range=nothing, zone=nothing)


def _printf_csv(cells):
    """The CSV text that formats every cell with its own '%.12g'."""
    rows = np.asarray(cells, dtype=float).reshape(-1, 7).tolist()
    return CSV_HEADER + "\n" + "".join(",".join("%.12g" % v for v in row) + "\n"
                                       for row in rows)


def _slow_cells(cells) -> int:
    """How many of the cells the formatter leaves to '%.12g' itself."""
    with np.errstate(all="ignore"):
        _, _, slow = _printf._decimal(np.asarray(cells, dtype=float).ravel())
    return int(np.count_nonzero(slow))


# any float64: drawn as a float, or as a bit pattern so that every
# exponent, subnormals and nan payloads come up as often as any other
_float64 = st.one_of(
    st.floats(width=64),
    st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64))),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.lists(_float64, min_size=7, max_size=7), min_size=1, max_size=600))
def test_csv_cells_match_printf_on_any_floats(rows):
    cells = np.array(rows)
    assert _written_csv(_columns_batch(cells)) == _printf_csv(cells)
    # the same cells with the first column preformatted, as a sweep's energies
    columns = tuple(cells.T.copy())
    text = b"".join(_printf.csv_blocks(columns, _printf.column_words(columns[0])))
    assert CSV_HEADER + "\n" + text.decode("ascii") == _printf_csv(cells)


def test_csv_cells_match_printf_at_every_exponent():
    rng = np.random.default_rng(12)
    powers = np.array([float(f"1e{k}") for k in range(-323, 309)])
    neighbours = np.concatenate([powers, np.nextafter(powers, 0.0),
                                 np.nextafter(powers, np.inf)])
    # halfway values of twelve random digits at each decimal exponent,
    # rounded to binary: near-ties that either rounding can get wrong
    digits = rng.integers(10**11, 10**12, 631).astype(float)
    near_ties = (digits + 0.5) * 1e-12 * 10.0 ** np.arange(-322, 309)
    bits = rng.integers(0, 2**63, 40_000, dtype=np.uint64).view(np.float64)
    values = np.concatenate([neighbours, -neighbours, near_ties, bits,
                             [0.0, -0.0, 5e-324, math.inf, -math.inf, math.nan]])
    values = np.resize(values, (len(values) + 6) // 7 * 7)
    assert _written_csv(_columns_batch(values)) == _printf_csv(values)


def test_thirteenth_digit_ties_take_the_per_cell_path():
    # exact binary values whose 13th significant digit is a 5 followed by
    # nothing: C rounds them half to even, which numpy's scaling cannot
    # be trusted to see
    n = np.arange(100_000_000_000, 100_000_000_000 + 70, dtype=float)
    ties = np.concatenate([n + 0.5, -(n + 0.5), (10 * n + 5) * 10.0, (10 * n + 5) * 1000.0])
    for v in ties:
        assert Decimal(v).normalize().as_tuple().digits[12:] == (5,)
    assert _written_csv(_columns_batch(ties)) == _printf_csv(ties)
    assert _slow_cells(ties) == len(ties)


def test_formatter_tables():
    assert _printf.POW10.tolist() == [float(10**k) for k in range(309)]
    for v in (0, 7, 1200, 9999):
        assert int(_printf.DIGITS[v]).to_bytes(8, "little") == b"%04d\0\0\0\0" % v
        assert _printf.TRAILING0[v] == len(b"%04d" % v) - len((b"%04d" % v).rstrip(b"0"))
        # the trailing zeros of a cell's sixteen digits when the group at
        # bytes 4-7, 8-11, 12-15 or 16-19 is the last nonzero one
        for place in range(4):
            sixteen = b"%04d" % v + b"0" * 4 * (3 - place)
            assert _printf._LAST_ZEROS[v] + _printf._AFTER[place, 0] == (
                len(sixteen) - len(sixteen.rstrip(b"0")) if v else 16 + 4 * (3 - place))
    # the scaling's powers: 10**k for k < 0 correctly rounded too
    for row, k in ((_printf._ROW0 + 300, -289), (_printf._ROW0, 11), (_printf._ROW0 - 297, 308)):
        assert _printf._MUL[row] == float(Decimal(10) ** k)


def test_formatter_counts_its_per_cell_cells(reference):
    batch = transmission_curve(reference, 1.05, 11.5, 40)
    columns = (batch.e, batch.t2, batch.r2, batch.t.real, batch.t.imag,
               batch.r.real, batch.r.imag)
    assert 0 <= _slow_cells(np.stack(columns, axis=1)) < 7 * 40
    # nan, inf and the subnormal go through '%.12g'; zeros and 1e-290 do not
    assert _slow_cells([0.0, -0.0, math.nan, math.inf, 5e-324, 1e-290, 0.5]) == 3


@pytest.mark.parametrize("a_plus", [9.0, 16.0])
def test_columnar_csv_matches_per_cell_formatter_on_thick_barriers(reference, a_plus):
    batch = transmission_curve(replace(reference, a_plus=a_plus), 1.01, 12.0, 20_000)
    assert _written_csv(batch) == format_rows_csv(_split(batch))


@pytest.fixture(scope="module")
def reference_curve(reference):
    return transmission_curve(reference, 1.01, 12.0, 20_000)


@pytest.mark.parametrize("rows", [1, 511, 512, 513, 2000, 20_000])
def test_streamed_csv_is_the_formatted_text(reference_curve, rows):
    # block edges fall after 512 rows; one row needs a one-row buffer
    batch = ScatteringResult(*(c[:rows] for c in reference_curve))
    text = _written_csv(batch)
    assert text == format_rows_csv(_split(batch))
    assert text.count("\n") == rows + 1


def test_streaming_the_reference_curve_stays_under_a_megabyte(reference_curve, tmp_path):
    # one block's words and temporaries at a time, not the 2.2 MB text
    path = tmp_path / "curve.csv"
    tracemalloc.start()
    try:
        write_curve_csv(path, reference_curve)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1e6 < path.stat().st_size


def _failing_on_call(n, monkeypatch):
    """Make the n-th block formatted from now on raise."""
    real, calls = _printf.g12_rows, []

    def flaky(*args):
        calls.append(None)
        if len(calls) == n:
            raise RuntimeError("forced failure")
        return real(*args)

    monkeypatch.setattr(_printf, "g12_rows", flaky)


def test_a_failed_write_leaves_no_file(reference_curve, tmp_path, monkeypatch):
    _failing_on_call(2, monkeypatch)
    path = tmp_path / "curve.csv"
    with pytest.raises(RuntimeError, match="forced failure"):
        write_curve_csv(path, reference_curve)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("failing_block", [2, 6])
def test_a_sweep_failing_mid_frame_leaves_no_file(reference, tmp_path, monkeypatch,
                                                  failing_block):
    # 2,000 rows make four blocks a frame: block 2 fails the first frame,
    # block 6 the second, after the first frame's file was written
    _failing_on_call(failing_block, monkeypatch)
    outdir = tmp_path / "frames"
    with pytest.raises(RuntimeError, match="forced failure"):
        run_sweep(reference, "a-minus", 1.0, 2.0, 3, outdir, 1.01, 12.0, 2000)
    assert list(outdir.iterdir()) == []


@pytest.mark.parametrize("param", ["a-minus", "a-plus"])
def test_every_sweep_frame_is_the_curve_of_its_widths(reference, tmp_path, param):
    frames, points = 5, 600
    manifest = run_sweep(reference, param, 1.0, 3.0, frames, tmp_path, 1.01, 12.0, points)
    field = param.replace("-", "_")
    for frame, value in zip(manifest["frames"], np.linspace(1.0, 3.0, frames), strict=True):
        curve = transmission_curve(replace(reference, **{field: float(value)}), 1.01, 12.0,
                                   points)
        assert (tmp_path / frame["file"]).read_bytes() == _written_csv(curve).encode()


def test_a_sweep_at_20k_points_matches_short_curves(reference, tmp_path):
    # at 16,384 energies or more numpy reuses large temporaries in place, so
    # a frame must not depend on the grid's length: each equals its curve
    # computed 1,000 energies at a time
    grid = admissible_grid(reference, 1.01, 12.0, 20_000)
    manifest = run_sweep(reference, "a-plus", 3.0, 16.0, 2, tmp_path, 1.01, 12.0, 20_000)
    for frame, a_plus in zip(manifest["frames"], (3.0, 16.0), strict=True):
        cfg = replace(reference, a_plus=a_plus)
        parts = [transfer.scatter(grid[i:i + 1000], cfg) for i in range(0, grid.size, 1000)]
        curve = ScatteringResult(*(np.concatenate(c) for c in zip(*parts)))
        assert (tmp_path / frame["file"]).read_bytes() == _written_csv(curve).encode()


@pytest.mark.parametrize("frames", [2, 5])
def test_a_sweep_formats_its_energy_column_once(reference, tmp_path, monkeypatch, frames):
    points = 600
    grid = admissible_grid(reference, 1.01, 12.0, points)
    formatted = []

    def spy(x, words, _real=_printf._g12_words):
        formatted.append(x.copy())
        return _real(x, words)

    monkeypatch.setattr(_printf, "_g12_words", spy)
    run_sweep(reference, "a-minus", 1.0, 3.0, frames, tmp_path, 1.01, 12.0, points)
    # one call formats the grid; every frame formats its other six columns
    assert sum(np.array_equal(x, grid) for x in formatted) == 1
    assert sum(x.size for x in formatted) == points * (1 + 6 * frames)


def test_sweep_frames_from_a_tie_energy_match_their_curves(reference, tmp_path):
    # 2.000000000005 is a 13th-digit tie that '%.12g' itself formats, and
    # 2,000 rows cross three 512-row block edges
    e_min = 2.000000000005
    assert _slow_cells(admissible_grid(reference, e_min, 12.0, 2000)[:1]) == 1
    manifest = run_sweep(reference, "a-minus", 1.0, 2.0, 3, tmp_path, e_min, 12.0, 2000)
    for frame, a_minus in zip(manifest["frames"], (1.0, 1.5, 2.0), strict=True):
        curve = transmission_curve(replace(reference, a_minus=a_minus), e_min, 12.0, 2000)
        text = (tmp_path / frame["file"]).read_bytes().decode("ascii")
        assert text == _written_csv(curve) == format_rows_csv(_split(curve))
        assert text.split("\n")[1].startswith("2.00000000001,")


def test_a_sweep_computes_its_width_free_half_once(reference, tmp_path, monkeypatch):
    calls = {"_media": 0, "classify": 0}
    for name in calls:
        def spy(*args, _name=name, _real=getattr(transfer, name)):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(transfer, name, spy)
    run_sweep(reference, "a-minus", 1.0, 3.0, 5, tmp_path, 1.01, 12.0, 300)
    assert calls == {"_media": 1, "classify": 1}


def _bits(row):
    """Every float of a row's numeric fields, exactly (signed zeros too)."""
    numbers = (row.e, row.t.real, row.t.imag, row.r.real, row.r.imag, row.t2, row.r2)
    return [float(x).hex() for x in numbers]


def test_transmission_rows_split_the_batch(reference):
    points = 300
    batch = transmission_curve(reference, 1.05, 11.5, points)
    rows = transmission_rows(reference, 1.05, 11.5, points)
    assert len(rows) == points
    for i, row in enumerate(rows):
        assert type(row) is ScatteringResult
        assert type(row.e) is float and type(row.t2) is float
        assert type(row.t) is complex and type(row.r) is complex
        assert (row.e, row.t, row.r, row.t2, row.r2) == (
            batch.e[i], batch.t[i], batch.r[i], batch.t2[i], batch.r2[i])
        assert _bits(row) == _bits(ScatteringResult(*(c[i] for c in batch)))
        assert row.matrix_range is batch.matrix_range[i]
        assert row.zone is batch.zone[i]
        # built with tuple.__new__, each row is the named tuple its fields make
        rebuilt = ScatteringResult(*row)
        assert row == rebuilt
        assert [type(x) for x in row] == [type(x) for x in rebuilt]
        assert row._replace(t2=0.5) == rebuilt._replace(t2=0.5)
        assert row._replace(t2=0.5).t2 == 0.5 and row._replace(t2=0.5).e is row.e


def test_svg_polyline_matches_per_point_formatter(reference):
    batch = transmission_curve(reference, 1.01, 12.0, 20_000)
    want = f'<polyline points="{polyline_points(batch.e.tolist(), batch.t2.tolist())}"'
    assert want in render_curve_svg(batch.e, batch.t2, reference)
    # lists render the same document as arrays
    assert (render_curve_svg(batch.e.tolist(), batch.t2.tolist(), reference)
            == render_curve_svg(batch.e, batch.t2, reference))


def test_svg_polyline_clamps_like_the_per_point_formatter(reference):
    energies = [1.5, 2.0, 2.5, 3.5, 4.5, 5.5]
    t2s = [-0.0, -0.25, 1.2, math.nan, 1.05, 0.5]
    want = f'<polyline points="{polyline_points(energies, t2s)}"'
    assert want in render_curve_svg(energies, t2s, reference)


def test_svg_polyline_matches_per_point_formatter_off_the_plot_box(reference):
    # the first and last energies make x = 64 + E pixels; the others land
    # on exact halves of a hundredth, left of the box, far right of it and
    # at infinity, which all go through '%.2f' itself
    energies = [0.0, 36.125, 36.375, -5000.0, 1e9, math.inf, 880.0]
    t2s = [0.5, 0.25, 1.0, 0.0, 0.75, 0.5, 0.125]
    want = f'<polyline points="{polyline_points(energies, t2s)}"'
    assert want in render_curve_svg(energies, t2s, reference)


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


def test_sweep_frame_matches_per_cell_formatter(reference, tmp_path):
    manifest = run_sweep(reference, "a-minus", 1.0, 2.0, 2, tmp_path,
                         e_min=1.05, e_max=11.0, points=2000)
    for frame in manifest["frames"]:
        cfg = replace(reference, a_minus=frame["value"])
        want = format_rows_csv(transmission_rows(cfg, 1.05, 11.0, 2000))
        assert (tmp_path / frame["file"]).read_text() == want


@pytest.mark.parametrize("window", [
    dict(e_min=1.05, e_max=11.0, points=1),
    dict(e_min=1.05, e_max=math.inf, points=10),
])
def test_refused_sweep_leaves_no_directory(reference, tmp_path, window):
    outdir = tmp_path / "frames"
    with pytest.raises(ValueError):
        run_sweep(reference, "a-minus", 1.0, 2.0, 2, outdir, **window)
    assert not outdir.exists()


def test_a_window_inside_one_band_is_refused(reference, tmp_path):
    # nudge would move every energy of the window out of it
    with pytest.raises(ValueError, match="excluded energy 8;"):
        transmission_curve(reference, 7.9999996, 8.0000004, 5)
    with pytest.raises(ValueError, match="excluded energy 8;"):
        run_sweep(reference, "a-minus", 1.0, 2.0, 2, tmp_path / "sweep",
                  7.9999996, 8.0000004, 5)
    assert not (tmp_path / "sweep").exists()


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
