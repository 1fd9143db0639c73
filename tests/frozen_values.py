"""Frozen reference constants for the regression suite.

Regenerate with scripts/make_golden.py.  Every value here was pinned
through an independent route before being trusted: the step matrix and
the sample amplitudes at 50-digit precision, |T|^2 via boundary
matching, the width via a dense million-point grid, the rest via the
engine itself after those checks.
"""

# reference potential used throughout: v_plus=8, v_minus=4, a_plus=3,
# a_minus=2.5, m=1

# resonance energies of the reference potential, ten decimals
LOWER_KLEIN_ENERGIES = (
    1.1913921248,
    1.4523858967,
    1.7708714661,
    2.0643517404,
    2.2185949080,
    2.4744005714,
    2.7966547987,
)
HIGHER_KLEIN_ENERGIES = (
    5.1824247690,
    5.5378483868,
    6.1348174089,
    6.7590893689,
)
CONVENTIONAL_ENERGIES = (
    7.2022544582,
    7.7033320458,
    8.2103665633,
    8.7007206203,
)
# top zone searched up to E = 11
ABOVE_BARRIER_ENERGIES = (
    9.1265979020,
    9.4112532302,
    9.4794638424,
    9.7910774141,
    10.1475989665,
    10.3256144827,
    10.5446769142,
    10.9095057090,
)

# inner-barrier step matrix at E = 6, 50-digit reference
INNER_BARRIER_E6 = (
    (0.7992761915150909 - 0.8333612080067473j),
    0.5773502691896257j,
    -0.5773502691896257j,
    (0.7992761915150909 + 0.8333612080067473j),
)

# T and R at the SAMPLE_ENERGIES of test_transfer.py, 50-digit reference
# (the four interface matrices multiplied on mpmath numbers); the
# comments give scatter's deviation when these were frozen
SAMPLE_AMPLITUDES = {
    1.3: ((-0.01042301362363129+0.6107601794711565j), (0.7916317653316952+0.013509703075429815j)),  # 1.6e-16
    2.0: ((0.7669124873646255-0.490335182351733j), (-0.2230239224568275-0.3488222694786943j)),  # 1.2e-15
    3.5: ((0.011083118657919788-0.009929874691535568j), (-0.6672209450507669-0.7447112007718069j)),  # 1.6e-16
    4.5: ((0.00618495405520612+0.01210216932449116j), (0.8903703023582566-0.4550340740202243j)),  # 2.3e-15
    6.0: ((-0.26104372441637724+0.33207731866922646j), (0.7125963648713193+0.5601671617833959j)),  # 2.4e-15
    7.5: ((-0.00517795295850401+0.004445899500953499j), (-0.65142249071864-0.7586844939543119j)),  # 1.8e-15
    8.5: ((0.002407050177622208-0.009666019392264713j), (0.9703172740076099+0.24163021735907061j)),  # 3.0e-15
    9.5: ((0.5802960234127712-0.8075607349980483j), (0.08556648778671902+0.061486264064275625j)),  # 8.8e-16
    11.4: ((0.9300252105740007+0.36200158300337937j), (0.022963829421456125-0.05899681464397296j)),  # 7.2e-15
}

# boundary-matching |T|^2 deep in the lower gap, E = 3.5
GAP_T2_E35 = 0.0002214379305751287

# sharpest conventional resonance and its width from a dense
# million-point |T|^2 grid
SHARPEST_CONV_LEVEL = 1
SHARPEST_CONV_FWHM_DENSE = 0.001632404717855529

# density enhancement on the floor at the first lower-zone resonance
FLOOR_ENHANCEMENT = 1.3279159412164168

# counts for v_plus = 10, v_minus = 4, a_plus = 3, a_minus = 2.5, top
# zone searched to 13
TALL_BARRIER_COUNTS = {
    "lower-klein": 7,
    "gap-lower": 0,
    "higher-klein": 11,
    "conventional": 4,
    "above-barrier": 8,
}
TALL_BARRIER_SPOT_ENERGIES = {
    ("lower-klein", 0): 1.145043505886589,
    ("higher-klein", 10): 8.662165459639244,
    ("conventional", 3): 10.577972788770648,
    ("above-barrier", 7): 12.83305680308206,
}

# totals over the default zones at the floor-width sweep endpoints
FLOOR_NARROW_TOTAL = 8  # a_minus = 1.0, conventional part 2
FLOOR_WIDE_TOTAL = 18   # a_minus = 3.0, conventional part 5
