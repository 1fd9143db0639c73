import cmath
import math

import numpy as np
import pytest

from dirac_double_barrier import (
    EVAL_MARGIN,
    BoundaryEnergy,
    ConfigError,
    MatrixRange,
    PotentialConfig,
    Region,
    SingularEnergy,
    Zone,
    classify,
    core,
    kinematics,
    singular_energies,
    special_energies,
    zone_interval,
)


def test_half_width_is_sum_of_parts(reference):
    assert reference.a == 5.5


def test_potential_levels(reference):
    assert reference.potential(Region.ZERO) == 0.0
    assert reference.potential(Region.PLUS) == 8.0
    assert reference.potential(Region.MINUS) == 4.0


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(v_plus=8.0, v_minus=2.0, a_plus=3.0, a_minus=2.5),
        dict(v_plus=8.0, v_minus=1.2, a_plus=3.0, a_minus=2.5),
        dict(v_plus=5.9, v_minus=4.0, a_plus=3.0, a_minus=2.5),
        dict(v_plus=8.0, v_minus=4.0, a_plus=0.0, a_minus=2.5),
        dict(v_plus=8.0, v_minus=4.0, a_plus=3.0, a_minus=-1.0),
        dict(v_plus=8.0, v_minus=4.0, a_plus=3.0, a_minus=2.5, m=0.0),
        dict(v_plus=8.0, v_minus=4.2, a_plus=3.0, a_minus=2.5, m=2.0),
    ],
)
def test_structural_conditions_are_enforced(kwargs):
    with pytest.raises(ConfigError):
        PotentialConfig(**kwargs)


def test_mass_scaled_structure_is_accepted():
    cfg = PotentialConfig(v_plus=16.0, v_minus=8.0, a_plus=1.5, a_minus=1.25, m=2.0)
    assert cfg.a == 2.75


def test_singular_energies_of_reference(reference):
    assert singular_energies(reference) == [1.0, 3.0, 5.0, 7.0, 9.0]


def test_special_energies_of_reference(reference):
    assert special_energies(reference) == (1.0, 3.0, 4.0, 5.0, 7.0, 8.0, 9.0)
    cfg = PotentialConfig(v_plus=16.0, v_minus=8.0, a_plus=1.5, a_minus=1.25, m=2.0)
    assert special_energies(cfg) == (2.0, 6.0, 8.0, 10.0, 14.0, 16.0, 18.0)


def test_nudge_keeps_the_side(reference):
    margin = EVAL_MARGIN * reference.m
    e = np.array([3.0, 3.0 - 4e-7, 3.0 + 4e-7, 4.0 - margin, 6.5, 9.0 + 2e-6])
    assert core.nudge(e, reference).tolist() == [
        3.0 + margin, 3.0 - margin, 3.0 + margin, 4.0 - margin, 6.5, 9.0 + 2e-6,
    ]
    assert e[0] == 3.0  # the input is left alone
    # each energy is nudged as it would be alone
    assert core.nudge(e, reference).tolist() == [core.nudge(x, reference) for x in e.tolist()]


def test_nudge_of_a_float_is_a_float(reference):
    got = core.nudge(1.0, reference)
    assert type(got) is float
    assert got == 1.0 + EVAL_MARGIN * reference.m
    assert core.nudge(1.0 - 1e-7, reference) == 1.0 - EVAL_MARGIN * reference.m
    assert core.nudge(2.0, reference) == 2.0


def test_nudged_points_stay_put_under_a_second_nudge(reference):
    e = np.linspace(1.0, 9.0, 33)
    once = core.nudge(e, reference)
    assert min(np.abs(once - s).min() for s in special_energies(reference)) >= (
        EVAL_MARGIN * (1.0 - 1e-9))
    assert core.nudge(once, reference).tolist() == once.tolist()


def test_zone_intervals_of_reference(reference):
    assert zone_interval(Zone.LOWER_KLEIN, reference) == (1.0, 3.0)
    assert zone_interval(Zone.GAP_LOWER, reference) == (3.0, 5.0)
    assert zone_interval(Zone.HIGHER_KLEIN, reference) == (5.0, 7.0)
    assert zone_interval(Zone.CONVENTIONAL, reference) == (7.0, 9.0)
    lo, hi = zone_interval(Zone.ABOVE_BARRIER, reference)
    assert lo == 9.0 and math.isinf(hi)


@pytest.mark.parametrize(
    "e,rng,zone",
    [
        (2.0, MatrixRange.I, Zone.LOWER_KLEIN),
        (3.5, MatrixRange.I, Zone.GAP_LOWER),
        (4.5, MatrixRange.II, Zone.GAP_LOWER),
        (6.0, MatrixRange.II, Zone.HIGHER_KLEIN),
        (7.5, MatrixRange.II, Zone.CONVENTIONAL),
        (8.5, MatrixRange.III, Zone.CONVENTIONAL),
        (9.5, MatrixRange.III, Zone.ABOVE_BARRIER),
        (30.0, MatrixRange.III, Zone.ABOVE_BARRIER),
    ],
)
def test_classification(reference, e, rng, zone):
    assert classify(e, reference) == (rng, zone)


@pytest.mark.parametrize("e", [0.5, 1.0, 3.0, 4.0 + 1e-12, 5.0, 7.0, 8.0, 9.0 - 1e-13])
def test_classify_rejects_boundaries(reference, e):
    with pytest.raises(BoundaryEnergy):
        classify(e, reference)


def test_wave_vector_oscillatory_branch(reference):
    k = kinematics(2.0, Region.ZERO, reference).k
    assert abs(k - 1j * math.sqrt(3.0)) < 1e-14
    k = kinematics(2.0, Region.PLUS, reference).k
    assert abs(k - 1j * math.sqrt(35.0)) < 1e-14


def test_wave_vector_evanescent_branch(reference):
    k = kinematics(7.5, Region.PLUS, reference).k
    assert abs(k - math.sqrt(0.75)) < 1e-14
    k = kinematics(4.2, Region.MINUS, reference).k
    assert abs(k - math.sqrt(0.96)) < 1e-14


@pytest.mark.parametrize("e,region", [(2.0, Region.ZERO), (7.5, Region.PLUS), (4.2, Region.MINUS)])
def test_dispersion_identity(reference, e, region):
    # k^2 + (E - U)^2 = m^2 on both branches
    k = kinematics(e, region, reference).k
    d = e - reference.potential(region)
    assert abs(k * k + d * d - reference.m**2) < 1e-12


@pytest.mark.parametrize("e,region", [
    (3.0, Region.MINUS),
    (5.0, Region.MINUS),
    (7.0, Region.PLUS),
    (9.0, Region.PLUS),
    (1.0 + 1e-12, Region.ZERO),
])
def test_singular_energies_are_rejected(reference, e, region):
    with pytest.raises(SingularEnergy):
        kinematics(e, region, reference)


@pytest.mark.parametrize("e,region,sign", [
    (7.5, Region.PLUS, 1.0),    # evanescent
    (4.2, Region.MINUS, 1.0),
    (2.0, Region.ZERO, -1.0),   # oscillatory
    (2.0, Region.MINUS, -1.0),
    (9.5, Region.PLUS, -1.0),
])
def test_weight_product_sign(reference, e, region, sign):
    kin = kinematics(e, region, reference)
    assert abs(kin.alpha * kin.beta - sign) < 1e-12
