"""Acceptance gate: one test per shipped guarantee.

Each test prints a single PASS/FAIL verdict line (visible with -s or on
failure) and asserts the same condition, so `pytest -v` doubles as the
checklist.
"""

import sys
import time
import warnings

import numpy as np
import pytest

from dirac_double_barrier import (
    MatrixRange,
    NumericalOverflow,
    PotentialConfig,
    Zone,
    attach_widths,
    classify,
    factor_matrices,
    find_above_barrier,
    full_matrix,
    find_resonances,
    run_verification,
    sample_energies,
    scatter,
    solve_amplitudes,
)
from dirac_double_barrier.cli import main
from dirac_double_barrier.emit import admissible_grid
from frozen_values import (
    ABOVE_BARRIER_ENERGIES,
    CONVENTIONAL_ENERGIES,
    HIGHER_KLEIN_ENERGIES,
    LOWER_KLEIN_ENERGIES,
)
from well_reference import barrier_decay, well_energies

REFERENCE = PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=3.0, a_minus=2.5)

EXPECTED = {
    Zone.LOWER_KLEIN: LOWER_KLEIN_ENERGIES,
    Zone.HIGHER_KLEIN: HIGHER_KLEIN_ENERGIES,
    Zone.CONVENTIONAL: CONVENTIONAL_ENERGIES,
    Zone.ABOVE_BARRIER: ABOVE_BARRIER_ENERGIES,
}

ALL_REFERENCE_ENERGIES = (
    LOWER_KLEIN_ENERGIES + HIGHER_KLEIN_ENERGIES
    + CONVENTIONAL_ENERGIES + ABOVE_BARRIER_ENERGIES
)


def _verdict(ok: bool, label: str) -> None:
    print(("PASS: " if ok else "FAIL: ") + label)
    assert ok, label


def test_reference_resonance_table_is_reproduced():
    start = time.monotonic()
    found = find_resonances(REFERENCE) + find_above_barrier(REFERENCE, 11.0)
    elapsed = time.monotonic() - start
    by_zone = {z: sorted(r.energy for r in found if r.zone is z)
               for z in EXPECTED}
    counts_ok = all(len(by_zone[z]) == len(want)
                    for z, want in EXPECTED.items())
    worst = max(
        (abs(got - want)
         for z, want_list in EXPECTED.items()
         for got, want in zip(by_zone[z], want_list)),
        default=float("inf"),
    ) if counts_ok else float("inf")
    _verdict(
        counts_ok and worst < 1e-8 and elapsed < 10.0,
        f"resonance table: 7/4/4/8 resonances, worst |dE| = {worst:.1e} "
        f"(< 1e-8), search took {elapsed:.2f}s (< 10s)",
    )


def test_full_peaks_and_suppressed_gap():
    peak_floor = min(scatter(e, REFERENCE).t2 for e in ALL_REFERENCE_ENERGIES)
    grid = np.linspace(3.1, 4.9, 10_000)
    gap_ceiling = max(scatter(float(e), REFERENCE).t2 for e in grid)
    _verdict(
        peak_floor >= 1.0 - 1e-6 and gap_ceiling < 0.5,
        f"peaks and gap: min |T|^2 at the 23 resonances = {1 - peak_floor:.1e} "
        f"below 1, gap max = {gap_ceiling:.3f} (< 0.5)",
    )


def test_invariants_hold_over_seeded_energies():
    report = run_verification(REFERENCE, samples=10_000, seed=0)
    worst = max(c.worst for c in report.checks)
    _verdict(
        report.passed and len(report.checks) == 3,
        f"invariants: flux, mirror symmetry and boundary matching of the "
        f"printed amplitudes hold to {worst:.1e} (< 1e-10) over 10^4 seeded energies",
    )


def test_boundary_matching_agreement():
    energies = sample_energies(REFERENCE, 1_000, seed=7)
    ranges = {classify(e, REFERENCE)[0] for e in energies}
    worst = max(abs(scatter(e, REFERENCE).t - solve_amplitudes(e, REFERENCE).t)
                for e in energies)
    _verdict(
        ranges == set(MatrixRange) and worst < 1e-10,
        f"cross-check: transfer vs boundary-matching worst |dT| = "
        f"{worst:.1e} (< 1e-10) over 10^3 energies in all three ranges",
    )


def test_continuity_at_range_boundaries():
    eps = 1e-6
    jumps = [
        abs(scatter(b - eps, REFERENCE).t - scatter(b + eps, REFERENCE).t)
        for b in (REFERENCE.v_minus, REFERENCE.v_plus)
    ]
    _verdict(
        max(jumps) < 1e-4,
        f"continuity: |T| jumps across the range boundaries are "
        f"{jumps[0]:.1e} and {jumps[1]:.1e} (< 1e-4)",
    )


def test_conventional_count_is_stable_in_barrier_width():
    # thin barriers, then thick ones up to where tau nears underflow; from
    # a_plus 9 on, each root lies within the barrier decay of its
    # isolated-well energy, plus both refinements' Brent tolerances, and no
    # width reads 0
    counts, off_well, zero_widths = [], [], []
    for a_plus in (1.0, 1.5, 2.0, 2.5, 3.0, 9.0, 12.0, 16.0, 20.0, 30.0, 200.0):
        cfg = PotentialConfig(v_plus=8.0, v_minus=4.0,
                              a_plus=a_plus, a_minus=2.5)
        conv = find_resonances(cfg, [Zone.CONVENTIONAL])
        counts.append(len(conv))
        zero_widths += [r.energy for r in conv if r.fwhm == 0.0]
        if a_plus < 9.0 or len(conv) != 4:
            continue
        for r, well in zip(conv, well_energies(cfg)):
            brent = 1e-12 * cfg.m + 4.0 * sys.float_info.epsilon * well
            if not abs(r.energy - well) <= barrier_decay(well, cfg) + 2.0 * brent:
                off_well.append((a_plus, r.energy, well))
    _verdict(
        counts == [4] * 11 and not off_well and not zero_widths,
        f"level count: conventional counts over the barrier-width sweep "
        f"= {counts} (all 4); off the well reference {off_well}; "
        f"zero widths {zero_widths}",
    )


def test_conventional_peaks_are_sharpest():
    withw = attach_widths(find_resonances(REFERENCE), REFERENCE)
    conv = [r.fwhm for r in withw if r.zone is Zone.CONVENTIONAL]
    klein = [r.fwhm for r in withw
             if r.zone in (Zone.LOWER_KLEIN, Zone.HIGHER_KLEIN)
             and r.fwhm is not None]
    ok = (len(conv) == 4 and all(w is not None for w in conv)
          and len(klein) > 0 and max(conv) < min(klein))
    _verdict(
        ok,
        f"sharpness order: widest conventional fwhm {max(conv):.2e} < "
        f"narrowest computable Klein fwhm {min(klein):.2e}",
    )


def test_peaks_sharpen_as_barriers_thicken():
    widths = {}
    for a_plus in (1.0, 3.0):
        cfg = PotentialConfig(v_plus=8.0, v_minus=4.0,
                              a_plus=a_plus, a_minus=2.5)
        conv = attach_widths(find_resonances(cfg, [Zone.CONVENTIONAL]), cfg)
        widths[a_plus] = {r.level: r.fwhm for r in conv}
    ok = (
        set(widths[1.0]) == set(widths[3.0]) == {0, 1, 2, 3}
        and all(w is not None for w in widths[1.0].values())
        and all(w is not None for w in widths[3.0].values())
        and all(widths[3.0][lvl] < widths[1.0][lvl] for lvl in widths[1.0])
    )
    ratios = [widths[1.0][lvl] / widths[3.0][lvl] for lvl in sorted(widths[1.0])]
    _verdict(
        ok,
        "width scaling: every conventional level narrows from a_plus=1 to "
        f"a_plus=3 (ratios {', '.join(f'{x:.0f}x' for x in ratios)})",
    )


def _scaled(m):
    """The reference potential at mass m: heights times m, widths over m."""
    return PotentialConfig(v_plus=8.0 * m, v_minus=4.0 * m, a_plus=3.0 / m,
                           a_minus=2.5 / m, m=m)


@pytest.mark.parametrize("valid, beyond", [(1e-150, 1e-200), (1e150, 1e200)],
                         ids=["small", "large"])
def test_results_are_scale_free_over_the_stated_range(valid, beyond, reference_resonances,
                                                      tmp_path, capsys):
    # README states that m from 1e-150 to 1e150 gives the m = 1 results;
    # past that range the commands exit 1, and no RuntimeWarning escapes
    cfg = _scaled(valid)
    energies = admissible_grid(REFERENCE, 1.01, 12.0, 2_000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        base, other = scatter(energies, REFERENCE), scatter(energies * valid, cfg)
        found = find_resonances(cfg) + find_above_barrier(cfg, 11.0 * valid)
        verified = run_verification(cfg, samples=2_000, seed=1).passed
    worst = max(np.abs(other.t2 - base.t2).max(), np.abs(other.t - base.t).max())
    roots_ok = len(found) == len(reference_resonances) == 23 and all(
        abs(r.energy / valid - want.energy) < 2e-15
        for r, want in zip(found, reference_resonances))

    flags = [f"--{key}={value!r}" for key, value in (
        ("v-plus", 8.0 * beyond), ("v-minus", 4.0 * beyond), ("a-plus", 3.0 / beyond),
        ("a-minus", 2.5 / beyond), ("mass", beyond))]
    refused = []
    for argv in (["transmission", *flags, "--out", str(tmp_path / "curve.csv")],
                 ["resonances", *flags, "--out", str(tmp_path / "report.json")],
                 ["verify", *flags, "--samples", "500", "--seed", "1"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        err = capsys.readouterr().err
        refused.append(code == 1 and err.startswith("computation failed: "))
    for evaluate in (scatter, full_matrix, factor_matrices):
        # one energy, as the search refines it, and the product on one
        with pytest.raises(NumericalOverflow):
            evaluate(2.0 * beyond, _scaled(beyond))
    _verdict(
        worst < 2.5e-13 and roots_ok and verified and all(refused),
        f"scale: at m = {valid:g}, |T|^2 and T within {worst:.1e} (< 2.5e-13) of "
        f"m = 1 over 2000 energies, 23 resonances within 2e-15 m, verify passes; "
        f"at m = {beyond:g} transmission, resonances and verify exit 1",
    )
