import logging
import math
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

import scalar_march
import walk_m21
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
    # a zone's refinement, gate and widths read one memoised scalar walk
    # of M21 = b/tau: no energy is walked twice, every root is an energy
    # Brent evaluated, and the residual is |b/tau| there
    refine = resonance._refine_bracket
    energies: list = []
    roots = []

    def counted(e, cfg):
        if not isinstance(e, np.ndarray):  # the scan's grid is an array
            energies.append(e)
        return transfer._checked_walk(e, cfg)

    def checked(walk, lo, hi):
        root = refine(walk, lo, hi)
        if root is not None:
            assert root in walk
            roots.append(root)
        return root

    monkeypatch.setattr(resonance, "_checked_walk", counted)
    monkeypatch.setattr(resonance, "_refine_bracket", checked)
    found = find_resonances(cfg, ZONE_ORDER[:-1])
    found += find_above_barrier(cfg, cfg.v_plus + 3.0 * cfg.m)
    assert found and {r.energy for r in found} <= set(roots)
    assert all(type(e) is float for e in energies)
    assert len(set(energies)) == len(energies)
    for r in found:
        assert r.residual.hex() == abs(walk_m21.m21(r.energy, cfg)).hex()


def _product_refinement(walk, lo, hi):
    """_refine_bracket on Im M21 of the product, the test-side reference."""
    cfg = walk.cfg
    try:
        return resonance.brentq(lambda e: full_matrix(e, cfg).m21.imag, lo, hi,
                                xtol=resonance._REFINE_TOLERANCE * cfg.m)
    except ValueError:
        return None


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
    # the product by the same gate, its |b| read as |M21| |tau|
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
        m21 = full_matrix(w.energy, cfg).m21
        _, tau = walk_m21.b_tau(w.energy, cfg)
        assert (abs(m21) < resonance._RESIDUAL_ACCEPT
                or abs(m21) * abs(tau) < resonance._WALK_ACCEPT)


def test_search_and_widths_never_call_the_product(reference, monkeypatch):
    want = zone_report(reference, list(Zone), 11.0)

    def refuse(e, cfg):
        raise AssertionError(f"the product was evaluated at E = {e!r}")

    monkeypatch.setattr(resonance, "full_matrix", refuse)
    assert zone_report(reference, list(Zone), 11.0) == want


def _scan_counts(caplog) -> list:
    """Per scan record: points, sign changes, accepted, dropped where the
    scalar walk keeps its sign, dropped by the gate, scalar walks."""
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
    for points, changes, accepted, unsigned, dropped, _ in counts:
        assert points == SearchSettings().grid_points_per_zone
        assert changes == accepted + unsigned + dropped
    assert [c[2] for c in counts] == [sum(r.zone is z for r in found) for z in ZONE_ORDER]
    # every sign change of the scan is a root: none dropped
    assert [sum(c[j] for c in counts) for j in (3, 4)] == [0, 0]
    assert _records(caplog, logging.WARNING) == []
    # the widths read the rest of the scalar walks
    assert sum(c[5] for c in counts) + sum(w[3] for w in _width_records(caplog)) == len(evaluated)

    # at a_plus = 9 the gate in the walk's scale accepts all four
    # conventional roots, whose |M21| the absolute gate alone would refuse
    caplog.clear()
    thick = PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=9.0, a_minus=2.5)
    assert len(find_resonances(thick, [Zone.CONVENTIONAL])) == 4
    assert [c[1:5] for c in _scan_counts(caplog)] == [[4, 4, 0, 0]]


def test_a_sign_change_the_scalar_walk_does_not_see_is_a_warned_drop(reference, caplog,
                                                                     monkeypatch):
    # the scalar walk rounds otherwise than the array one; where it keeps
    # its sign over a cell the scan flagged, the refinement gives None and
    # the scan drops the candidate with a WARNING naming the cell
    walk = resonance._Walk(reference)
    assert resonance._refine_bracket(walk, 7.5, 7.501) is None
    assert sorted(walk) == [7.5, 7.501]

    def scalar_keeps_its_sign(e, cfg):
        if isinstance(e, np.ndarray):
            return transfer._checked_walk(e, cfg)
        return walk_m21.walk_of(1j, 1.0)  # Im M21 = 1 everywhere

    monkeypatch.setattr(resonance, "_checked_walk", scalar_keeps_its_sign)
    caplog.set_level(logging.DEBUG, logger=resonance.__name__)
    assert find_resonances(reference, [Zone.CONVENTIONAL]) == []
    warned = _records(caplog, logging.WARNING)
    assert len(warned) == len(CONVENTIONAL_ENERGIES)
    for message, energy in zip(warned, CONVENTIONAL_ENERGIES):
        lo, hi = map(float, re.fullmatch(
            r"sign change of Im M21 over \((\S+), (\S+)\) dropped: "
            r"the scalar walk keeps its sign there", message).groups())
        assert lo < energy < hi
    assert [c[1:] for c in _scan_counts(caplog)] == [[4, 0, 4, 0, 8]]


def test_scan_brackets_match_the_product(monkeypatch):
    # the scan reads Im M21 off the bounded walk; the brackets it hands
    # the refinement must be the cells where the product's Im M21
    # changes sign
    walk = transfer._checked_walk
    expected: list = []
    seen: list = []

    def scan_with_reference(grid, cfg):
        assert isinstance(grid, np.ndarray)  # only the scan, nothing refined
        negative = np.signbit(full_matrix(grid, cfg).m21.imag)
        i = np.flatnonzero(negative[:-1] != negative[1:])
        expected.extend(zip(grid[i].tolist(), grid[i + 1].tolist()))
        return walk(grid, cfg)

    def record(walk, lo, hi):
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
    # Im M21 passes double range under the barriers from a_plus of about
    # 355 on this floor, where tau underflows; the scan must say so rather
    # than lose the zone to an infinite grid or leak a RuntimeWarning.
    # Below that the conventional roots are found: 4 at a_plus = 200.
    cfg = PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=a_plus, a_minus=2.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if a_plus < 350.0:
            assert len(find_resonances(cfg, [Zone.CONVENTIONAL])) == 4
            return
        with pytest.raises(NumericalOverflow, match=r"^M21 overflowed at E = "):
            find_resonances(cfg)


def _one_call_im_m21(e, cfg):
    """Im M21 of one array walk over all of e, with no check."""
    _, b, tau = transfer._checked_walk(e, cfg)
    with np.errstate(all="ignore"):
        return (b / tau).imag


@pytest.mark.parametrize("block, size", [
    *((resonance._BLOCK, resonance._BLOCK + k) for k in (-1, 0, 1)),
    (resonance._BLOCK, 2 * resonance._BLOCK + 1),  # one energy past two blocks
    (resonance._BLOCK, 2 * resonance._BLOCK + 2),
    (7, 4000),  # 571 blocks, the last of 8
])
def test_the_blocked_scan_is_the_one_call_walk_to_the_bit(reference, monkeypatch, block, size):
    monkeypatch.setattr(resonance, "_BLOCK", block)
    margin = core.EVAL_MARGIN * reference.m
    for zone in ZONE_ORDER:
        lo, hi = zone_interval(zone, reference)
        grid = core.nudge(np.linspace(lo + margin, min(hi, 11.0) - margin, size), reference)
        got = resonance._im_m21(grid, reference)
        assert got.shape == grid.shape
        assert got.tobytes() == _one_call_im_m21(grid, reference).tobytes(), zone


@pytest.mark.parametrize("block", [resonance._BLOCK, 64])
def test_an_overflow_in_a_later_block_names_the_one_call_energy(monkeypatch, block):
    # Im M21 overflows in the middle of the conventional zone at a_plus
    # 400, about 0.54 m above its bottom, but not below
    cfg = PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=400.0, a_minus=2.5)
    grid = np.linspace(7.0 + 1e-6, 8.0 - 1e-6, 2 * resonance._BLOCK + 1)
    bad = ~np.isfinite(_one_call_im_m21(grid, cfg))
    first = int(bad.argmax())
    assert bad.any() and first >= block  # not in the first block
    monkeypatch.setattr(resonance, "_BLOCK", block)
    with pytest.raises(NumericalOverflow) as info:
        resonance._im_m21(grid, cfg)
    assert str(info.value) == f"M21 overflowed at E = {float(grid[first])!r}"


def test_a_close_root_pair_is_found_by_the_default_grid():
    # two lower-Klein roots 1.87 cells of the default grid apart; no cell
    # holds both, so no sign change cancels.  A grid of 1,000 points puts
    # them in one cell and loses both without a WARNING (README)
    cfg = PotentialConfig(v_plus=9.592175667891562, v_minus=6.64129925704799,
                          a_plus=3.9626575625927556, a_minus=0.38430797630408353)
    found = [round(r.energy, 10) for r in find_resonances(cfg, [Zone.LOWER_KLEIN])]
    assert len(found) == 12
    assert 5.042857441 in found and 5.0450273408 in found


#: The reference potential on a floor 80 times wider.
WIDE_FLOOR = PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=3.0, a_minus=200.0)


def test_a_wide_floor_keeps_the_roots_crowding_at_its_thresholds(caplog):
    # k_minus goes to 0 at v_minus +/- m, so the floor's roots crowd there,
    # down to 9e-5 m apart; the phase grid keeps every one of the 987 sign
    # changes a 400,000-point uniform grid finds: 982 roots and 5 residual
    # gate drops, each with a WARNING.  A uniform grid of 4,000 points
    # found 975 roots and warned of none (README)
    with caplog.at_level(logging.WARNING, logger=resonance.__name__):
        found = find_resonances(WIDE_FLOOR)
    assert [sum(r.zone is z for r in found) for z in resonance.DEFAULT_ZONES] == [361, 357, 264]
    warned = _records(caplog, logging.WARNING)
    assert len(warned) == 5 and all("residual_accept" in w for w in warned)


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


def test_roots_dropped_by_the_residual_gate_are_warned(reference, caplog, monkeypatch):
    # at a_plus = 9 the four conventional roots converge with |M21| from
    # 1.8e-10 to 2.5e-6 and |b| far below 1e-10; without the gate in the
    # walk's scale the absolute 1e-8 gate drops the middle two, each with
    # a WARNING that names it
    thick = PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=9.0, a_minus=2.5)
    monkeypatch.setattr(resonance, "_WALK_ACCEPT", 0.0)
    with caplog.at_level(logging.DEBUG, logger=resonance.__name__):
        kept = find_resonances(thick, [Zone.CONVENTIONAL])
    assert [round(r.energy, 7) for r in kept] == [7.2054487, 8.6985908]
    warned = _records(caplog, logging.WARNING)
    assert len(warned) == 2
    for message, energy in zip(warned, ("7.7036976", "8.2102841")):
        assert f"root at E = {energy}" in message
        assert "residual_accept" in message
    assert [c[1:5] for c in _scan_counts(caplog)] == [[4, 2, 0, 2]]
    # the reference drops nothing, and warns of nothing
    caplog.clear()
    monkeypatch.undo()
    with caplog.at_level(logging.DEBUG, logger=resonance.__name__):
        find_resonances(reference, ZONE_ORDER[:-1])
        find_above_barrier(reference, 11.0)
    assert _records(caplog, logging.WARNING) == []
    assert [c[3:5] for c in _scan_counts(caplog)] == [[0, 0]] * len(ZONE_ORDER)


def _random_potentials(count, seed=1):
    """Seeded potentials over the ranges the search is meant to cover."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        v_minus = rng.uniform(2.5, 4.5)
        yield PotentialConfig(v_plus=v_minus + rng.uniform(2.3, 8.0), v_minus=v_minus,
                              a_plus=rng.uniform(0.3, 6.0), a_minus=rng.uniform(0.3, 4.0))


# ten random potentials, a_plus = 9 on the reference floor, whose four
# conventional roots the absolute residual gate alone would drop, and the
# wide floor a_minus = 200, whose roots crowd at v_minus +/- m
@pytest.mark.parametrize("cfg", [*_random_potentials(10),
                                 PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=9.0,
                                                 a_minus=2.5),
                                 WIDE_FLOOR])
def test_every_sign_change_is_a_root_or_a_warned_drop(cfg, caplog):
    # Im M21 = Im(b/tau) is continuous in a bounded zone, so each of its
    # sign changes on a dense grid is a resonance the search must report
    # or say it dropped
    margin = core.EVAL_MARGIN * cfg.m
    for zone in ZONE_ORDER[:-1]:
        lo, hi = zone_interval(zone, cfg)
        grid = core.nudge(np.linspace(lo + margin, hi - margin, 64_000), cfg)
        negative = np.signbit(walk_m21.m21(grid, cfg).imag)
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


def _fwhm_bound(cfg, upper) -> float:
    """How far two fwhm of one peak may lie apart: Brent stops each
    crossing within xtol + 4 eps E of it, for E up to the upper crossing,
    and a fwhm is the difference of two crossings."""
    return 4.0 * (resonance._REFINE_TOLERANCE * cfg.m + 4.0 * np.finfo(float).eps * upper)


#: (config, e_max, widths resolved at least): the two benchmark spectrum
#: jobs, a narrow floor and 50 seeded potentials.
_WIDTH_CASES = {
    "reference": (PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=3.0, a_minus=2.5), 11.0, 10),
    "tall": (PotentialConfig(v_plus=10.0, v_minus=4.0, a_plus=3.0, a_minus=2.5), 13.0, 10),
    "narrow-floor": (PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=3.0, a_minus=1.0), 11.0, 5),
    **{f"seeded-{i}": (cfg, cfg.v_plus + 3.0 * cfg.m, 0)
       for i, cfg in enumerate(_random_potentials(50, seed=27))},
}


@pytest.mark.parametrize("cfg, e_max, resolved", list(_WIDTH_CASES.values()),
                         ids=list(_WIDTH_CASES))
def test_widths_match_the_scalar_march(cfg, e_max, resolved):
    # the widths the search reads off its scan, and those attach_widths
    # reads off its own, against one march at a time on scatter's |T|^2
    settings = SearchSettings()
    found = find_resonances(cfg, ZONE_ORDER[:-1]) + find_above_barrier(cfg, e_max)
    want = scalar_march.widths(found, cfg, settings)
    again = attach_widths(found, cfg, settings)
    assert [replace(r, fwhm=None) for r in again] == [replace(r, fwhm=None) for r in found]
    # on a bounded zone they are the search's own widths, to the bit
    assert [r for r in again if r.zone is not Zone.ABOVE_BARRIER] == [
        r for r in found if r.zone is not Zone.ABOVE_BARRIER]
    assert [w is None for w in want] == [r.fwhm is None for r in found] == [
        r.fwhm is None for r in again]
    for r, a, w in zip(found, again, want):
        if w is not None:
            bound = _fwhm_bound(cfg, r.energy + w)
            assert abs(r.fwhm - w) <= bound and abs(a.fwhm - w) <= bound, r
    assert sum(w is not None for w in want) >= resolved


def _width_records(caplog) -> list:
    """Per widths record: resolved, resonances, crossings refined, scalar
    walk evaluations and energies evaluated past the scan."""
    return [[int(n) for n in re.findall(r"\b\d+\b", m.split("): ", 1)[1])]
            for m in _records(caplog, logging.DEBUG) if m.startswith("widths of")]


def test_widths_log_what_they_did(reference, caplog, monkeypatch):
    evaluated, refined = [], []
    walk, port = resonance._checked_walk, resonance.brentq

    def counted(e, cfg):
        if not isinstance(e, np.ndarray):
            evaluated.append(e)
        return walk(e, cfg)

    def recorded(f, a, b, **kwargs):
        refined.append((a, b))
        return port(f, a, b, **kwargs)

    monkeypatch.setattr(resonance, "_checked_walk", counted)
    monkeypatch.setattr(resonance, "brentq", recorded)
    caplog.set_level(logging.DEBUG, logger=resonance.__name__)
    found = find_resonances(reference, ZONE_ORDER[:-1]) + find_above_barrier(reference, 11.0)
    scans, widths = _scan_counts(caplog), _width_records(caplog)
    # one record per zone, after the scan of that zone
    assert len(widths) == len(scans) == len(ZONE_ORDER)
    assert [w[:2] for w in widths] == [
        [sum(r.fwhm is not None for r in found if r.zone is z), sum(r.zone is z for r in found)]
        for z in ZONE_ORDER]
    # the scan refines a bracket per sign change and the widths the
    # rest; the widths make the scalar walks the scan did not, and at
    # these cutoffs none reads past its scan
    assert sum(w[2] for w in widths) == len(refined) - sum(c[1] for c in scans)
    assert sum(w[3] for w in widths) == len(evaluated) - sum(c[5] for c in scans)
    assert [w[4] for w in widths] == [0] * len(ZONE_ORDER)
    # the crossings one march at a time refines: the right side of a root
    # whose left side found none is not read
    refined.clear()
    scalar_march.widths(found, reference, SearchSettings())
    assert sum(w[2] for w in widths) == len(refined) > 2 * sum(w[0] for w in widths)


def _last_open_crossings(cfg, found, e_max, settings):
    """Left and right crossing of the last open-zone root by the scalar
    march, stepping at the zone's spacing (that of a scan from the zone's
    start to the right fence, or to e_max if that is higher), and its
    right fence."""
    margin = core.EVAL_MARGIN * cfg.m
    lo, _ = zone_interval(Zone.ABOVE_BARRIER, cfg)
    last = found[-1].energy
    fence = found[-2].energy if len(found) > 1 else lo + margin
    cap = last + 4.0 * cfg.m - margin
    step = (max(cap, e_max) - (lo + margin)) / (settings.grid_points_per_zone - 1)
    left = scalar_march.half_crossing(cfg, last, fence, -step, settings)
    return left, scalar_march.half_crossing(cfg, last, cap, step, settings), cap, step


@pytest.mark.parametrize("e_max, resolved", [(9.13, True), (9.42, False)],
                         ids=["crossing-past-e-max", "none-up-to-the-cap"])
def test_open_zone_reads_its_last_width_past_e_max(reference, caplog, monkeypatch,
                                                   e_max, resolved):
    # the last open-zone root has a left crossing on the scan and none on
    # it to the right: its right side goes on past e_max at the zone's
    # spacing, up to 4 m above the root, one margin in, and no further
    settings = SearchSettings()
    past = []
    walk = resonance._checked_walk

    def recorded(e, cfg):
        if isinstance(e, np.ndarray) and e[0] > e_max:
            past.extend(e.tolist())
        return walk(e, cfg)

    monkeypatch.setattr(resonance, "_checked_walk", recorded)
    caplog.set_level(logging.DEBUG, logger=resonance.__name__)
    found = find_above_barrier(reference, e_max)
    ((*_, logged),) = _width_records(caplog)
    left, right, cap, step = _last_open_crossings(reference, found, e_max, settings)
    assert left is not None and logged == len(past) > 0
    assert len(past) < settings.grid_points_per_zone
    assert past == pytest.approx([e_max + (i + 1) * step for i in range(len(past) - 1)]
                                 + [past[-1]], rel=0, abs=1e-12)
    if resolved:
        assert right > e_max
        want = scalar_march.widths(found, reference, settings)[-1]
        assert abs(found[-1].fwhm - want) <= _fwhm_bound(reference, right)
        assert past[-1] < cap
    else:
        assert right is None and found[-1].fwhm is None
        assert past[-1] == cap and past[-2] < cap


@pytest.mark.parametrize("name", ["reference", "tall"])
def test_no_search_reads_more_than_a_scan_past_e_max(caplog, name):
    # wherever e_max falls above the barrier, the last open-zone width
    # reads fewer energies past the scan than the scan has grid points
    cfg = _WIDTH_CASES[name][0]
    settings = SearchSettings()
    caplog.set_level(logging.DEBUG, logger=resonance.__name__)
    lo = cfg.v_plus + cfg.m
    for e_max in np.linspace(lo + 0.02 * cfg.m, lo + 3.0 * cfg.m, 25).tolist():
        find_above_barrier(cfg, e_max, settings)
    past = [w[4] for w in _width_records(caplog)]
    assert len(past) == 25 and max(past) > 0
    assert max(past) < settings.grid_points_per_zone


def test_a_zone_edge_grid_energy_is_a_candidate(reference, reference_resonances):
    # the scan's first energy, one margin inside the zone edge, brackets
    # a crossing as any other grid energy: left of the first lower-Klein
    # peak only that energy is kept
    settings = SearchSettings()
    lo, hi = zone_interval(Zone.LOWER_KLEIN, reference)
    margin = core.EVAL_MARGIN * reference.m
    walk, grid, f = resonance._scan(reference, lo + margin, hi - margin, settings)
    first = reference_resonances[0]
    k = np.searchsorted(grid, first.energy)
    keep = np.r_[0, k - 1:grid.size]
    assert abs(f[0]) > 1.0 and abs(f[k - 1]) < 1.0
    (fwhm,) = resonance._widths(walk, grid[keep], f[keep], [first.energy])
    want = scalar_march.widths([first], reference, settings)[0]
    assert abs(fwhm - want) <= _fwhm_bound(reference, first.energy + want)
    assert resonance._widths(walk, grid[keep[1:]], f[keep[1:]], [first.energy]) == [None]


def test_flat_transmission_has_no_width(reference, caplog):
    # against a flat |T|^2 = 0.9 no side of a peak reaches 1/2 before its
    # fence, and nothing is refined or evaluated
    caplog.set_level(logging.DEBUG, logger=resonance.__name__)
    for zone in ZONE_ORDER[:-1]:
        lo, hi = zone_interval(zone, reference)
        grid = np.linspace(lo, hi, 100)[1:-1]
        flat = np.full(grid.size, math.sqrt(1.0 / 0.9 - 1.0))  # f^2 = 1/|T|^2 - 1
        roots = grid[[30, 60]].tolist()
        walk = resonance._Walk(reference)
        walk.update((e, (0j, 0.0)) for e in roots)  # each root a peak, |M21| = 0
        assert resonance._widths(walk, grid, flat, roots) == [None] * 2
    assert [w[2:] for w in _width_records(caplog)] == [[0, 0, 0]] * (len(ZONE_ORDER) - 1)


def _scan_side(cfg, start, limit, step, settings):
    """fwhm attach_widths gives a resonance at start: its zone's scan
    ends at the limit, one margin inside the zone edge."""
    (zone,) = [z for z in ZONE_ORDER if zone_interval(z, cfg)[0] < start < zone_interval(z, cfg)[1]]
    peak = resonance.Resonance(energy=start, zone=zone, residual=0.0, level=0)
    (found,) = attach_widths([peak], cfg, settings)
    return found.fwhm


@pytest.mark.parametrize("march", [_scan_side, scalar_march.half_crossing],
                         ids=["chunked", "scalar"])
@pytest.mark.parametrize("zone, start, step", [
    (Zone.LOWER_KLEIN, 1.002, -5e-4),
    (Zone.CONVENTIONAL, 8.998, 5e-4),
], ids=["threshold", "zone-top"])
def test_march_limit_stays_in_the_window(reference, monkeypatch, march, zone, start, step):
    # against a flat |T|^2 = 0.9 the march runs to its limit, one margin
    # inside the zone edge and so within the margin of a singular energy;
    # nudged on past the edge it would leave the window (below threshold,
    # m - margin raises BoundaryEnergy).  The scan the widths are read
    # off ends at that same limit, in one array call over the zone.
    settings = SearchSettings()
    margin = core.EVAL_MARGIN * reference.m
    lo, hi = zone_interval(zone, reference)
    limit = lo + margin if step < 0 else hi - margin
    seen = []

    def screened(e, cfg):
        scatter(e, cfg)  # screens E, so an energy out of the window raises
        seen.extend(np.atleast_1d(e).tolist())

    def flat_t2(e, cfg):
        screened(e, cfg)
        return 0.9

    def flat_walk(e, cfg):
        screened(e, cfg)
        one = np.ones_like(e) if isinstance(e, np.ndarray) else 1.0
        return walk_m21.walk_of(one * 1j * math.sqrt(1.0 / 0.9 - 1.0), one)  # f^2 = 1/|T|^2 - 1

    monkeypatch.setattr(resonance, "_checked_walk", flat_walk)
    monkeypatch.setattr(scalar_march, "_t2", flat_t2)
    assert march(reference, start, limit, step, settings) is None
    if march is _scan_side:
        # the scan over the zone, then the resonance's own |M21|
        assert seen.pop() == start
        window, count = (lo + margin, hi - margin), settings.grid_points_per_zone
    else:
        window, count = (min(start, limit), max(start, limit)), 4
    assert len(seen) == count and limit in seen and start not in seen
    assert all(window[0] <= e <= window[1] for e in seen)


def test_a_right_side_is_skipped_after_a_left_side_without_crossing(reference, monkeypatch):
    settings = SearchSettings()
    lo, hi = zone_interval(Zone.CONVENTIONAL, reference)
    margin = core.EVAL_MARGIN * reference.m
    walk, grid, f = resonance._scan(reference, lo + margin, hi - margin, settings)
    peak = find_resonances(reference, [Zone.CONVENTIONAL])[SHARPEST_CONV_LEVEL]
    refined = []
    port = resonance.brentq

    def recorded(f, a, b, **kwargs):
        refined.append((a, b))
        return port(f, a, b, **kwargs)

    monkeypatch.setattr(resonance, "brentq", recorded)
    assert resonance._widths(walk, grid, f, [peak.energy]) == [peak.fwhm]
    assert len(refined) == 2
    refined.clear()
    # no left crossing: |T|^2 = 0.9 below the peak
    left_flat = np.where(grid < peak.energy, math.sqrt(1.0 / 0.9 - 1.0), f)
    assert resonance._widths(walk, grid, left_flat, [peak.energy]) == [None]
    assert refined == []


def test_the_scalar_walk_decides_scan_energies_near_one(reference):
    # two scan energies 1e-9 m to either side of the right half-maximum
    # crossing of the sharpest peak, whose array |Im M21| errs by 1e-9 to
    # the wrong side of 1: the scalar walk, which refines the crossing,
    # must decide both, for they then bracket the crossing as they would
    # were the array right
    settings = SearchSettings()
    lo, hi = zone_interval(Zone.CONVENTIONAL, reference)
    margin = core.EVAL_MARGIN * reference.m
    _, grid, f = resonance._scan(reference, lo + margin, hi - margin, settings)
    conv = find_resonances(reference, [Zone.CONVENTIONAL])
    peak = conv[SHARPEST_CONV_LEVEL]
    roots = [r.energy for r in conv]

    def excess(e):
        return abs(walk_m21.m21(e, reference).imag) - 1.0

    i = np.searchsorted(grid, peak.energy)
    i += np.flatnonzero(np.abs(f[i:]) >= 1.0)[0]
    crossing = resonance.brentq(excess, float(grid[i - 1]), float(grid[i]),
                                xtol=resonance._REFINE_TOLERANCE * reference.m)
    inside, outside = crossing - 1e-9 * reference.m, crossing + 1e-9 * reference.m
    assert excess(inside) < 0.0 < excess(outside)
    grid = np.insert(grid, [i, i], [inside, outside])
    sign = math.copysign(1.0, f[i])

    def fwhm(error):
        record = np.insert(f, [i, i], [sign * (1.0 + error), sign * (1.0 - error)])
        walk = resonance._Walk(reference)
        return resonance._widths(walk, grid, record, roots)[SHARPEST_CONV_LEVEL]

    assert fwhm(1e-9) == fwhm(-1e-3) == pytest.approx(peak.fwhm)
    # outside the band the array decides, and Brent gets no sign change
    with pytest.raises(ValueError, match="different signs"):
        fwhm(1e-8)


def test_widths_of_a_non_peak_name_it(reference, caplog):
    # |T|^2 = 0.037 at E = 1.01, so no peak is resolved there: its fwhm
    # is None, with a WARNING that names it
    not_a_peak = resonance.Resonance(energy=1.01, zone=Zone.LOWER_KLEIN, residual=0.0, level=0)
    with caplog.at_level(logging.WARNING, logger=resonance.__name__):
        assert attach_widths([not_a_peak], reference) == [not_a_peak]
    assert _records(caplog, logging.WARNING) == [
        "fwhm at E = 1.01 is None: |M21| = 5.08832 there is not below 1, "
        "so no peak is resolved there"]
