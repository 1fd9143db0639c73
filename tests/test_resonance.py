import logging
import math
import re
import warnings

import numpy as np
import pytest

import scalar_march
from dirac_double_barrier import (
    ZONE_ORDER,
    NumericalOverflow,
    PotentialConfig,
    SearchSettings,
    Zone,
    attach_widths,
    core,
    find_above_barrier,
    find_resonances,
    full_matrix,
    resonance,
    scatter,
    transfer,
    zone_interval,
)
from dirac_double_barrier.emit import zone_report
from frozen_values import (
    ABOVE_BARRIER_ENERGIES,
    CONVENTIONAL_ENERGIES,
    FLOOR_NARROW_TOTAL,
    FLOOR_WIDE_TOTAL,
    HIGHER_KLEIN_ENERGIES,
    LOWER_KLEIN_ENERGIES,
    SHARPEST_CONV_FWHM_DENSE,
    SHARPEST_CONV_LEVEL,
    TALL_BARRIER_COUNTS,
    TALL_BARRIER_SPOT_ENERGIES,
)

EXPECTED = {
    Zone.LOWER_KLEIN: LOWER_KLEIN_ENERGIES,
    Zone.HIGHER_KLEIN: HIGHER_KLEIN_ENERGIES,
    Zone.CONVENTIONAL: CONVENTIONAL_ENERGIES,
    Zone.ABOVE_BARRIER: ABOVE_BARRIER_ENERGIES,
}


@pytest.mark.parametrize("zone", list(EXPECTED), ids=lambda z: z.value)
def test_reference_energies(reference_resonances, zone):
    found = sorted(r.energy for r in reference_resonances if r.zone is zone)
    expected = EXPECTED[zone]
    assert len(found) == len(expected)
    for got, want in zip(found, expected):
        assert got == pytest.approx(want, abs=1e-10)


def test_resonances_transmit_fully(reference, reference_resonances):
    for r in reference_resonances:
        assert scatter(r.energy, reference).t2 > 1.0 - 1e-10
        lo, hi = zone_interval(r.zone, reference)
        assert lo < r.energy < hi
        assert r.residual < 1e-8


def test_levels_count_from_zero_within_each_zone(reference_resonances):
    for zone in EXPECTED:
        group = sorted((r for r in reference_resonances if r.zone is zone),
                       key=lambda r: r.energy)
        assert [r.level for r in group] == list(range(len(group)))


def test_search_is_deterministic(reference):
    first = find_resonances(reference, [Zone.CONVENTIONAL])
    second = find_resonances(reference, [Zone.CONVENTIONAL])
    assert first == second


def test_refinement_is_converged(reference, monkeypatch):
    tolerance = resonance._REFINE_TOLERANCE
    coarse = find_resonances(reference, [Zone.CONVENTIONAL])
    monkeypatch.setattr(resonance, "_REFINE_TOLERANCE", tolerance / 2.0)
    # the halved tolerance must reach Brent, or the two runs agree trivially
    xtols = []
    real_brentq = resonance.brentq

    def spy(f, a, b, **kwargs):
        xtols.append(kwargs["xtol"])
        return real_brentq(f, a, b, **kwargs)

    monkeypatch.setattr(resonance, "brentq", spy)
    fine = find_resonances(reference, [Zone.CONVENTIONAL])
    assert xtols and set(xtols) == {tolerance / 2.0 * reference.m}
    assert len(coarse) == len(fine)
    for a, b in zip(coarse, fine):
        assert abs(a.energy - b.energy) <= tolerance * reference.m


@pytest.mark.parametrize("cfg", [
    PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=3.0, a_minus=2.5),
    PotentialConfig(v_plus=10.0, v_minus=4.0, a_plus=3.0, a_minus=2.5),
], ids=["reference", "tall"])
def test_refinement_evaluates_each_energy_once(cfg, monkeypatch):
    # every bracket's Brent closure evaluates the walk's M21 = b/tau at
    # distinct energies, counts them, and the residual is |b/tau| at the
    # root, read from those values
    refine = resonance._refine_bracket
    energies: list = []
    roots = []

    def counted(e, cfg):
        energies.append(e)
        return transfer._checked_walk(e, cfg)

    def checked(cfg, lo, hi):
        energies.clear()
        refined = refine(cfg, lo, hi)
        if refined is None:  # Im M21 keeps its sign; brentq read both ends
            assert len(energies) == 2
            return None
        root, residual, evaluations = refined
        assert all(type(e) is float for e in energies)
        assert len(set(energies)) == len(energies) == evaluations
        assert residual.hex() == abs(_walk_m21(root, cfg)).hex()
        roots.append(root)
        return root, residual, evaluations

    monkeypatch.setattr(resonance, "_checked_walk", counted)
    monkeypatch.setattr(resonance, "_refine_bracket", checked)
    found = find_resonances(cfg, ZONE_ORDER[:-1])
    found += find_above_barrier(cfg, cfg.v_plus + 3.0 * cfg.m)
    assert found and {r.energy for r in found} <= set(roots)


def _walk_m21(e, cfg):
    """M21 = b/tau off the checked walk at one energy, as the refinement reads it."""
    _, b, tau, _ = transfer._checked_walk(e, cfg)
    return b / tau


def _product_refinement(cfg, lo, hi):
    """_refine_bracket on Im M21 of the product, the test-side reference."""
    seen = {}

    def im_m21(e):
        seen[e] = value = full_matrix(e, cfg).m21
        return value.imag

    try:
        root = resonance.brentq(im_m21, lo, hi, xtol=resonance._REFINE_TOLERANCE * cfg.m)
    except ValueError:
        return None
    return root, abs(seen[root]), len(seen)


_THIN_BARRIERS = [
    PotentialConfig(v_plus=v_plus, v_minus=v_minus, a_plus=a_plus, a_minus=a_minus)
    for v_plus in (6.6, 10.0, 13.0)
    for v_minus in (2.5, 4.5)
    for a_plus in (0.7, 3.0, 5.0)
    for a_minus in (0.5, 2.5)
]


@pytest.mark.parametrize("cfg", [
    PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=3.0, a_minus=2.5),
    PotentialConfig(v_plus=10.0, v_minus=4.0, a_plus=3.0, a_minus=2.5),
    *_THIN_BARRIERS,
], ids=["reference", "tall", *(f"{c.v_plus:g}-{c.v_minus:g}-{c.a_plus:g}-{c.a_minus:g}"
                               for c in _THIN_BARRIERS)])
def test_walk_roots_match_the_product_roots(cfg, monkeypatch):
    # Brent on Im(b/tau) of the walk finds the roots Brent on Im M21 of
    # the product finds, to within their tolerance, and each is a root of
    # the product by the same gate
    def search():
        found = find_resonances(cfg, ZONE_ORDER[:-1])
        return found + find_above_barrier(cfg, cfg.v_plus + 3.0 * cfg.m)

    walk = search()
    monkeypatch.setattr(resonance, "_refine_bracket", _product_refinement)
    product = search()
    xtol = resonance._REFINE_TOLERANCE * cfg.m
    assert walk
    assert [(r.zone, r.level) for r in walk] == [(r.zone, r.level) for r in product]
    for w, p in zip(walk, product):
        assert abs(w.energy - p.energy) <= 2.0 * xtol
        assert abs(full_matrix(w.energy, cfg).m21.imag) < resonance._RESIDUAL_ACCEPT


def test_search_and_widths_never_call_the_product(reference, monkeypatch):
    want = zone_report(reference, list(Zone), 11.0)

    def refuse(e, cfg):
        raise AssertionError(f"the product was evaluated at E = {e!r}")

    monkeypatch.setattr(resonance, "full_matrix", refuse)
    assert zone_report(reference, list(Zone), 11.0) == want


def _scan_counts(caplog) -> list:
    """Per scan record: points, minima, accepted, rejected, dropped, merged, evaluations."""
    return [[int(n) for n in re.findall(r"\b\d+\b", m.split("): ", 1)[1])]
            for m in _records(caplog, logging.DEBUG) if m.startswith("scan of")]


def test_scan_logs_what_it_did(reference, caplog, monkeypatch):
    evaluated = []

    def counted(e, cfg):
        if not isinstance(e, np.ndarray):  # the scan's grid is the one array
            evaluated.append(e)
        return transfer._checked_walk(e, cfg)

    monkeypatch.setattr(resonance, "_checked_walk", counted)
    caplog.set_level(logging.DEBUG, logger=resonance.__name__)
    found = find_resonances(reference, ZONE_ORDER[:-1])
    found += find_above_barrier(reference, 11.0)
    counts = _scan_counts(caplog)
    assert len(counts) == len(ZONE_ORDER)
    for points, minima, accepted, rejected, dropped, merged, _ in counts:
        assert points == SearchSettings().grid_points_per_zone
        assert minima == accepted + rejected + dropped + merged
    assert [c[2] for c in counts] == [sum(r.zone is z for r in found) for z in ZONE_ORDER]
    # three minima where Im M21 keeps its sign, one in the gap and two in
    # the higher Klein zone, each logged with its bracket; no root dropped
    # or merged
    assert [sum(c[j] for c in counts) for j in (3, 4, 5)] == [3, 0, 0]
    assert [m for m in _records(caplog, logging.DEBUG) if m.startswith("bracket")] == [
        f"bracket near E = {e} rejected: Im M21 keeps its sign over ({lo}, {hi})"
        for e, lo, hi in (("3.90672677", "3.90622665", "3.9072269"),
                          ("5.70717709", "5.70667696", "5.70767721"),
                          ("6.52688119", "6.52638107", "6.52738132"))]
    assert sum(c[6] for c in counts) == len(evaluated)

    # at a_plus = 9 the gate drops all four conventional roots
    caplog.clear()
    thick = PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=9.0, a_minus=2.5)
    assert find_resonances(thick, [Zone.CONVENTIONAL]) == []
    assert [c[1:6] for c in _scan_counts(caplog)] == [[4, 0, 0, 4, 0]]

    # brackets converging to one root are merged into it
    caplog.clear()
    monkeypatch.setattr(resonance, "_refine_bracket", lambda cfg, lo, hi: (7.5, 1e-12, 3))
    assert [r.energy for r in find_resonances(reference, [Zone.CONVENTIONAL])] == [7.5]
    assert [c[1:] for c in _scan_counts(caplog)] == [[4, 1, 0, 0, 3, 12]]


def test_scan_brackets_match_the_product(monkeypatch):
    # the scan reads |M21|^2 off the bounded walk; the brackets it hands
    # the refinement must be the local minima of the product's |M21|^2
    walk = transfer._checked_walk
    expected: list = []
    seen: list = []

    def scan_with_reference(grid, cfg):
        assert isinstance(grid, np.ndarray)  # only the scan, nothing refined
        g = np.abs(full_matrix(grid, cfg).m21) ** 2
        i = np.flatnonzero((g[1:-1] < g[:-2]) & (g[1:-1] < g[2:])) + 1
        expected.extend(zip(grid[i - 1].tolist(), grid[i + 1].tolist()))
        return walk(grid, cfg)

    def record(cfg, lo, hi):
        seen.append((lo, hi))
        return None  # recorded, not refined

    monkeypatch.setattr(resonance, "_checked_walk", scan_with_reference)
    monkeypatch.setattr(resonance, "_refine_bracket", record)
    for v_plus in (6.6, 8.0, 13.0):
        for v_minus, a_minus in ((2.5, 0.4), (4.0, 2.5), (4.5, 4.0)):
            for a_plus in (0.5, 3.0, 9.0, 12.0, 16.0):
                cfg = PotentialConfig(v_plus=v_plus, v_minus=v_minus,
                                      a_plus=a_plus, a_minus=a_minus)
                before = len(seen)
                assert find_resonances(cfg, ZONE_ORDER[:-1]) == []
                assert find_above_barrier(cfg, cfg.v_plus + 4.0 * cfg.m) == []
                assert seen[before:] == expected[before:], cfg
    assert len(seen) > 2000


@pytest.mark.parametrize("a_plus", [200.0, 400.0, 900.0])
def test_wide_barriers_raise_without_a_warning(a_plus):
    # |M21|^2 passes double range under the barriers here; the scan must
    # say so rather than lose the zone to an infinite grid or leak a
    # RuntimeWarning
    cfg = PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=a_plus, a_minus=2.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalOverflow, match=r"\|M21\|\^2 overflowed at E = "):
            find_resonances(cfg)


#: Potentials (v_plus 8, v_minus 4, a_plus 3) with a root within the
#: singular tolerance of a matrix-range edge: (a_minus, zone, edge).
RANGE_EDGE_ROOTS = [
    (2.2632220631144735, Zone.CONVENTIONAL, 8.0),
    (0.2216255059240653, Zone.GAP_LOWER, 4.0),
]


@pytest.mark.parametrize("a_minus, zone, edge", RANGE_EDGE_ROOTS, ids=["v_plus", "v_minus"])
def test_a_root_on_a_range_edge_is_found(a_minus, zone, edge):
    # classify refuses E this close to v_plus or v_minus, but the walk is
    # regular there, so the refinement evaluates such energies as any other
    cfg = PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=3.0, a_minus=a_minus)
    found = find_resonances(cfg, [zone])
    (root,) = [r for r in found if abs(r.energy - edge) < core.SINGULAR_TOL]
    assert round(root.energy, 10) == edge
    assert root.residual < resonance._RESIDUAL_ACCEPT


def test_gap_zone_holds_no_resonances(reference):
    assert find_resonances(reference, [Zone.GAP_LOWER]) == []


def test_open_zone_needs_explicit_cutoff(reference):
    with pytest.raises(ValueError):
        find_resonances(reference, [Zone.ABOVE_BARRIER])
    with pytest.raises(ValueError):
        find_above_barrier(reference, 8.9)
    with pytest.raises(ValueError, match="must be finite"):
        find_above_barrier(reference, math.inf)
    with pytest.raises(ValueError):
        find_resonances(reference, [])


def _records(caplog, level):
    return [r.getMessage() for r in caplog.records if r.levelno == level]


def test_roots_dropped_by_the_residual_gate_are_warned(reference, caplog):
    # at a_plus = 9 the four conventional roots converge, but |M21| there
    # is 3e-8 to 1.1e-7, above the absolute 1e-8 gate
    thick = PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=9.0, a_minus=2.5)
    with caplog.at_level(logging.DEBUG, logger=resonance.__name__):
        assert find_resonances(thick, [Zone.CONVENTIONAL]) == []
    warned = _records(caplog, logging.WARNING)
    assert len(warned) == 4
    for message, energy in zip(warned, ("7.2054487", "7.7036976", "8.2102841", "8.6985907")):
        assert f"E = {energy}" in message
        assert "residual_accept" in message
    # minima where Im M21 keeps its sign are no roots and stay at DEBUG
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger=resonance.__name__):
        find_resonances(reference, ZONE_ORDER[:-1])
        find_above_barrier(reference, 11.0)
    assert _records(caplog, logging.WARNING) == []
    rejected = [m for m in _records(caplog, logging.DEBUG) if m.startswith("bracket")]
    assert [m.split(":")[0] for m in rejected] == [
        f"bracket near E = {e} rejected" for e in ("3.90672677", "5.70717709", "6.52688119")
    ]


def _random_potentials(count, seed=1):
    """Seeded potentials over the ranges the search is meant to cover."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        v_minus = rng.uniform(2.5, 4.5)
        yield PotentialConfig(v_plus=v_minus + rng.uniform(2.3, 8.0), v_minus=v_minus,
                              a_plus=rng.uniform(0.3, 6.0), a_minus=rng.uniform(0.3, 4.0))


# ten random potentials, and a_plus = 9 on the reference floor, whose four
# conventional roots the residual gate drops with a WARNING each
@pytest.mark.parametrize("cfg", [*_random_potentials(10),
                                 PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=9.0,
                                                 a_minus=2.5)])
def test_every_sign_change_is_a_root_or_a_warned_drop(cfg, caplog):
    # Im M21 = Im(b/tau) is continuous in a bounded zone, so each of its
    # sign changes on a dense grid is a resonance the search must report
    # or say it dropped
    margin = core.EVAL_MARGIN * cfg.m
    for zone in ZONE_ORDER[:-1]:
        lo, hi = zone_interval(zone, cfg)
        grid = core.nudge(np.linspace(lo + margin, hi - margin, 64_000), cfg)
        _, b, tau, _ = transfer._checked_walk(grid, cfg)
        negative = np.signbit((b / tau).imag)
        changes = np.count_nonzero(negative[1:] != negative[:-1])
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger=resonance.__name__):
            found = find_resonances(cfg, [zone])
        assert changes == len(found) + len(_records(caplog, logging.WARNING)), zone


def test_cutoff_truncates_open_zone(reference):
    res = find_above_barrier(reference, 9.6)
    assert [r.energy for r in res] == pytest.approx(
        list(ABOVE_BARRIER_ENERGIES[:3]), abs=1e-9
    )


def test_cutoff_just_past_first_open_resonance(reference):
    res = find_above_barrier(reference, 9.2)
    assert len(res) == 1
    assert res[0].energy == pytest.approx(ABOVE_BARRIER_ENERGIES[0], abs=1e-9)


def test_near_empty_open_interval_is_quiet(reference):
    lo = reference.v_plus + reference.m
    res = find_above_barrier(reference, lo + 2e-6 * reference.m)
    assert res == []


@pytest.mark.parametrize("kwargs", [
    dict(grid_points_per_zone=8),
])
def test_settings_validation(kwargs):
    with pytest.raises(ValueError):
        SearchSettings(**kwargs)


def test_sharpest_conventional_width_against_dense_grid(reference_widths):
    conv = [r for r in reference_widths if r.zone is Zone.CONVENTIONAL]
    assert all(r.fwhm is not None for r in conv)
    sharpest = min(conv, key=lambda r: r.fwhm)
    assert sharpest.level == SHARPEST_CONV_LEVEL
    assert sharpest.fwhm == pytest.approx(SHARPEST_CONV_FWHM_DENSE, rel=1e-2)


def test_overlapping_broad_peaks_have_no_width(reference_widths):
    lower = [r for r in reference_widths if r.zone is Zone.LOWER_KLEIN]
    # the middle of the lower zone is a run of broad overlapping peaks
    # where |T|^2 never dips to 1/2 between neighbors
    assert lower[2].fwhm is None
    assert lower[0].fwhm is not None


def test_neighbor_fences_do_not_move_isolated_widths(reference, reference_widths):
    conv = [r for r in reference_widths if r.zone is Zone.CONVENTIONAL]
    target = conv[SHARPEST_CONV_LEVEL]
    free = attach_widths([target], reference)[0].fwhm
    assert free == pytest.approx(target.fwhm, rel=1e-9)


def test_widths_are_positive_and_fit_in_zone(reference, reference_widths):
    for r in reference_widths:
        if r.fwhm is None:
            continue
        lo, hi = zone_interval(r.zone, reference)
        assert r.fwhm > 0.0
        if r.zone is not Zone.ABOVE_BARRIER:
            assert r.fwhm < hi - lo


def test_tall_barrier_counts():
    cfg = PotentialConfig(v_plus=10.0, v_minus=4.0, a_plus=3.0, a_minus=2.5)
    res = find_resonances(cfg, [Zone.LOWER_KLEIN, Zone.GAP_LOWER,
                                Zone.HIGHER_KLEIN, Zone.CONVENTIONAL])
    res += find_above_barrier(cfg, 13.0)
    counts = {z.value: sum(1 for r in res if r.zone is z) for z in Zone}
    assert counts == TALL_BARRIER_COUNTS
    by_key = {(r.zone.value, r.level): r.energy for r in res}
    for key, want in TALL_BARRIER_SPOT_ENERGIES.items():
        assert by_key[key] == pytest.approx(want, rel=1e-10)


def test_density_grows_with_floor_width():
    narrow = PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=3.0, a_minus=1.0)
    wide = PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=3.0, a_minus=3.0)
    n_narrow = len(find_resonances(narrow))
    n_wide = len(find_resonances(wide))
    assert n_narrow == FLOOR_NARROW_TOTAL
    assert n_wide == FLOOR_WIDE_TOTAL
    assert n_narrow < n_wide


@pytest.mark.parametrize("v_plus, a_minus, e_max, resolved", [
    (8.0, 2.5, 11.0, 10), (10.0, 2.5, 13.0, 10), (8.0, 1.0, 11.0, 5),
], ids=["reference", "tall", "narrow-floor"])
def test_chunked_march_matches_scalar_march(v_plus, a_minus, e_max, resolved):
    cfg = PotentialConfig(v_plus=v_plus, v_minus=4.0, a_plus=3.0, a_minus=a_minus)
    settings = SearchSettings()
    found = (find_resonances(cfg, ZONE_ORDER[:-1])
             + find_above_barrier(cfg, e_max))
    lockstep = [r.fwhm for r in attach_widths(found, cfg, settings)]
    assert lockstep == scalar_march.widths(found, cfg, settings)
    # overlapping peaks fenced by their neighbors never dip to 1/2
    assert None in lockstep
    assert sum(w is not None for w in lockstep) >= resolved


def _half_crossing(cfg, start, limit, step, settings):
    """The crossing of the one march (start, limit, step)."""
    return resonance._half_crossings(cfg, [(start, limit, step)], settings)[0]


def _array_t2_sizes(monkeypatch) -> list:
    sizes = []
    t2 = resonance._t2

    def counted(e, cfg):
        if isinstance(e, np.ndarray):
            sizes.append(e.size)
        return t2(e, cfg)

    monkeypatch.setattr(resonance, "_t2", counted)
    return sizes


def test_widths_take_a_few_shared_array_calls(reference, reference_resonances, monkeypatch):
    sizes = _array_t2_sizes(monkeypatch)
    settings = SearchSettings()
    attach_widths(reference_resonances, reference, settings)
    # one march at a time took 93 array calls here
    assert 0 < len(sizes) <= 8
    assert max(sizes) <= settings.grid_points_per_zone


def _march_counts(caplog) -> list:
    """marches, rounds, energies and refinements from the width march's record."""
    (record,) = [r for r in caplog.records if r.getMessage().startswith("width march")]
    assert record.levelno == logging.DEBUG
    return [int(n) for n in re.findall(r"\d+", record.getMessage())]


def test_oversized_rounds_are_split_without_moving_the_widths(reference, reference_resonances,
                                                              monkeypatch, caplog):
    caplog.set_level(logging.DEBUG, logger=resonance.__name__)
    sizes = _array_t2_sizes(monkeypatch)
    settings = SearchSettings(grid_points_per_zone=16)
    got = [r.fwhm for r in attach_widths(reference_resonances, reference, settings)]
    _, rounds, energies, _ = _march_counts(caplog)
    assert max(sizes) <= 16 and sum(sizes) == energies
    assert len(sizes) > rounds  # so rounds were split
    monkeypatch.undo()
    assert got == scalar_march.widths(reference_resonances, reference, settings)


def test_a_chunk_longer_than_the_cap_is_split(reference, monkeypatch):
    e = core.nudge(np.linspace(6.0, 9.5, 100), reference)
    want = resonance._dips(e, reference, 100)
    sizes = _array_t2_sizes(monkeypatch)
    assert resonance._dips(e, reference, 16).tolist() == want.tolist()
    assert sizes == [16] * 6 + [4]
    assert want.any() and not want.all()


def test_widths_log_what_the_march_did(reference, reference_resonances, caplog, monkeypatch):
    refinements = []

    def counted(*args, **kwargs):
        refinements.append(args[1:3])
        return brentq(*args, **kwargs)

    brentq = resonance.brentq
    monkeypatch.setattr(resonance, "brentq", counted)
    caplog.set_level(logging.DEBUG, logger=resonance.__name__)
    attach_widths(reference_resonances, reference)
    assert len(caplog.records) == 1
    marches, rounds, energies, refined = _march_counts(caplog)
    assert marches == 2 * len(reference_resonances)
    assert 0 < rounds <= 8 and energies > 0
    assert refined == len(refinements)
    # the same crossings as one march at a time: a right side whose left
    # side found no crossing is never refined
    lockstep = sorted(refinements)
    refinements.clear()
    scalar_march.widths(reference_resonances, reference, SearchSettings())
    assert lockstep == sorted(refinements)


def test_march_to_the_threshold_matches_scalar_march():
    # the first lower-Klein peak sits at E = 1.0275, so its left march
    # dips in the same chunk that reaches the limit m + margin, which
    # lies within the margin of the threshold and gets nudged
    cfg = PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=3.0, a_minus=1.0)
    settings = SearchSettings()
    first = find_resonances(cfg, [Zone.LOWER_KLEIN])[0]
    lo, hi = zone_interval(Zone.LOWER_KLEIN, cfg)
    step = (hi - lo) / settings.grid_points_per_zone
    limit = lo + core.EVAL_MARGIN * cfg.m
    args = (cfg, first.energy, limit, -step, settings)
    got = _half_crossing(*args)
    assert got is not None
    assert got == scalar_march.half_crossing(*args)
    # crossing and limit both fall in the second chunk, steps 33 to 96
    chunk = resonance._MARCH_CHUNK
    assert chunk < (first.energy - got) / step < (first.energy - limit) / step <= 3 * chunk


def test_dip_at_the_start_of_a_later_chunk_is_bracketed_by_the_chunk_before(reference):
    # steps sized so that the right half-maximum crossing of the sharpest
    # peak falls between march energies 32 and 33: the dip is the first
    # energy of the second chunk, and its bracket must reach back to the
    # last energy of the first chunk
    settings = SearchSettings()
    peak = find_resonances(reference, [Zone.CONVENTIONAL])[SHARPEST_CONV_LEVEL]
    lo, hi = zone_interval(Zone.CONVENTIONAL, reference)
    limit = hi - core.EVAL_MARGIN * reference.m
    step = (hi - lo) / settings.grid_points_per_zone
    crossing = scalar_march.half_crossing(reference, peak.energy, limit, step, settings)
    step = (crossing - peak.energy) / (resonance._MARCH_CHUNK + 0.5)
    args = (reference, peak.energy, limit, step, settings)
    assert _half_crossing(*args) == scalar_march.half_crossing(*args)
    brackets, rounds, _ = resonance._march_brackets(reference, [args[1:4]], settings)
    assert rounds == 2
    assert brackets[0][0] == peak.energy + resonance._MARCH_CHUNK * step


def test_march_lets_the_scalar_kernel_decide_at_one_half(reference, monkeypatch):
    # a march step that lands on the right half-maximum crossing of the
    # sharpest peak, against an array kernel whose |T|^2 errs by 5e-10
    # to the wrong side of 1/2 there; the scalar kernel, which refines
    # the crossing, must decide the bracket
    settings = SearchSettings()
    peak = find_resonances(reference, [Zone.CONVENTIONAL])[SHARPEST_CONV_LEVEL]
    lo, hi = zone_interval(Zone.CONVENTIONAL, reference)
    limit = hi - core.EVAL_MARGIN * reference.m
    step = (hi - lo) / settings.grid_points_per_zone
    crossing = scalar_march.half_crossing(reference, peak.energy, limit, step, settings)
    args = (reference, peak.energy, limit, (crossing - peak.energy) / 40, settings)
    want = scalar_march.half_crossing(*args)
    t2 = resonance._t2

    def skewed(e, cfg):
        out = t2(e, cfg)
        if isinstance(e, np.ndarray):
            out = out + np.where(out > 0.5, -5e-10, 5e-10)
        return out

    monkeypatch.setattr(resonance, "_t2", skewed)
    assert _half_crossing(*args) == want


@pytest.mark.parametrize("march", [_half_crossing, scalar_march.half_crossing],
                         ids=["chunked", "scalar"])
@pytest.mark.parametrize("zone, start, step", [
    (Zone.LOWER_KLEIN, 1.002, -5e-4),
    (Zone.CONVENTIONAL, 8.998, 5e-4),
], ids=["threshold", "zone-top"])
def test_march_limit_stays_in_the_window(reference, monkeypatch, march, zone, start, step):
    # against a flat |T|^2 = 0.9 the march runs to its limit, one margin
    # inside the zone edge and so within the margin of a singular energy;
    # nudged on past the edge it would leave the window (below threshold,
    # m - margin raises BoundaryEnergy)
    settings = SearchSettings()
    margin = core.EVAL_MARGIN * reference.m
    lo, hi = zone_interval(zone, reference)
    limit = lo + margin if step < 0 else hi - margin
    seen = []

    def flat(e, cfg):
        scatter(e, cfg)  # screens E, so an energy out of the window raises
        seen.extend(np.atleast_1d(e).tolist())
        return np.full_like(e, 0.9) if isinstance(e, np.ndarray) else 0.9

    monkeypatch.setattr(resonance, "_t2", flat)
    monkeypatch.setattr(scalar_march, "_t2", flat)
    assert march(reference, start, limit, step, settings) is None
    assert len(seen) == 4
    assert all(min(start, limit) <= e <= max(start, limit) for e in seen)
    assert start not in seen


@pytest.mark.parametrize("a_plus", [3.0, 16.0])
def test_scalar_t2_is_that_of_scatter(reference, reference_resonances, monkeypatch, a_plus):
    # the march's decisions at 1/2 and its crossing refinement read |T|^2
    # off the walk without classify; the bits must be those of scatter
    cfg = PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=a_plus, a_minus=2.5)
    energies = core.nudge(np.random.default_rng(7).uniform(1.0, 12.0, 1000), cfg).tolist()
    if a_plus == reference.a_plus:
        t2 = resonance._t2

        def recorded(e, cfg):
            if not isinstance(e, np.ndarray):  # arrays are the march's rounds
                energies.append(e)
            return t2(e, cfg)

        monkeypatch.setattr(resonance, "_t2", recorded)
        attach_widths(reference_resonances, reference)
        monkeypatch.undo()
        assert len(energies) > 1100
    for e in energies:
        assert resonance._t2(e, cfg).hex() == scatter(e, cfg).t2.hex()
    # and an array, as the march's rounds evaluate
    grid = np.array(energies)
    assert resonance._t2(grid, cfg).tobytes() == scatter(grid, cfg).t2.tobytes()


def test_march_from_a_non_peak_names_the_start(reference):
    # |T|^2 = 0.037 at E = 1.01, so the first march point already dips
    with pytest.raises(ValueError, match=r"\|T\|\^2 = 0\.0371871 at the march start E = 1\.01 "):
        _half_crossing(reference, 1.01, 1.0 + 1e-6, -5e-4, SearchSettings())
    not_a_peak = resonance.Resonance(energy=1.01, zone=Zone.LOWER_KLEIN, residual=0.0, level=0)
    with pytest.raises(ValueError, match="march start E = 1.01 "):
        attach_widths([not_a_peak], reference)
