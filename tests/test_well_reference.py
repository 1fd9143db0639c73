"""Thick barriers against the isolated well (tests/well_reference.py).

The refinement is read directly here; the search's public results at
these barrier widths are gated on the same reference in
tests/test_acceptance.py.
"""

import sys

import pytest

from dirac_double_barrier import PotentialConfig, resonance
from walk_m21 import m21
from well_reference import barrier_decay, well_energies

#: The isolated-well energies of the reference floor (v_plus 8, v_minus 4,
#: a_minus 2.5), ten decimals.
REFERENCE_WELL = (7.2054508547, 7.7036976669, 8.2102841013, 8.6985903736)

THICK = (9.0, 12.0, 16.0, 30.0)


def _floor(a_plus):
    return PotentialConfig(v_plus=8.0, v_minus=4.0, a_plus=a_plus, a_minus=2.5)


def _root_near(cfg, well):
    """The refinement's root of M21 within 0.05 m of a well energy."""
    span = 0.05 * cfg.m
    return resonance._refine_bracket(resonance._Walk(cfg), well - span, well + span)


def test_the_well_energies_of_the_reference_floor():
    assert [round(e, 10) for e in well_energies(_floor(3.0))] == list(REFERENCE_WELL)


@pytest.mark.parametrize("a_plus", THICK)
def test_refined_roots_approach_the_well_energies(a_plus):
    # each root lies within e^{-2 kappa_+ a_plus} of its well energy (the
    # shift reads 0.03 to 0.16 of that here), plus the two refinements'
    # own Brent tolerances
    cfg = _floor(a_plus)
    wells = well_energies(cfg)
    assert len(wells) == 4
    for well in wells:
        brent = resonance._REFINE_TOLERANCE * cfg.m + 4.0 * sys.float_info.epsilon * well
        assert abs(_root_near(cfg, well) - well) <= barrier_decay(well, cfg) + 2.0 * brent


def test_widths_vanish_like_the_barrier_decay():
    # |T|^2 = 1/(1 + f^2) with f = Im M21, so a peak's width is
    # 2/|f'(E0)|; scaled by e^{2 kappa_+ a_plus} it holds still as the
    # width falls from about 1e-6 to 1e-26, far below what |T|^2 can resolve
    scaled = []
    for a_plus in THICK:
        cfg = _floor(a_plus)
        step = 1e-6 * cfg.m

        def im_m21(e):
            return m21(e, cfg).imag

        row = []
        for well in well_energies(cfg):
            root = _root_near(cfg, well)
            slope = (im_m21(root + step) - im_m21(root - step)) / (2.0 * step)
            row.append(2.0 / abs(slope) / barrier_decay(root, cfg))
        scaled.append(row)
    for level in zip(*scaled):
        assert max(level) / min(level) - 1.0 < 0.01, level
