"""Synthetic cohort generator: calibration, determinism, signal structure."""

import numpy as np

from dosegate.cohort import cohort_to_text
from dosegate.gate import GateConfig, label_cohort
from dosegate.iwpc import DEFAULT_COEFFICIENTS, weekly_doses
from dosegate.records import BINARY_COVARIATES, Cohort, Race
from dosegate.synth import RISKY_REL_LOW, SAFE_REL, generate_synthetic_cohort


def _observed(column):
    return column[~np.isnan(column)]


def test_height_calibration():
    cohort = generate_synthetic_cohort(1000, seed=0)
    assert abs(np.mean(_observed(cohort["height_cm"])) - 169.7) <= 1.5


def test_race_frequency_calibration():
    races = _observed(generate_synthetic_cohort(1000, seed=1)["race"])
    white = np.mean(races == Race.WHITE)
    black = np.mean(races == Race.AFRICAN_AMERICAN)
    asian = np.mean(races == Race.ASIAN)
    assert abs(white - 0.63) <= 0.04
    assert abs(black - 0.15) <= 0.04
    assert abs(asian - 0.22) <= 0.04


def test_same_seed_byte_identical():
    a = generate_synthetic_cohort(300, seed=7)
    b = generate_synthetic_cohort(300, seed=7)
    assert cohort_to_text(a) == cohort_to_text(b)
    c = generate_synthetic_cohort(300, seed=8)
    assert cohort_to_text(a) != cohort_to_text(c)


def test_cohort_satisfies_inclusion_rules():
    cohort = generate_synthetic_cohort(500, seed=2)
    assert isinstance(cohort, Cohort) and len(cohort) == 500
    assert np.all(cohort["therapeutic_dose_mg_week"] > 0)
    assert np.all((cohort["inr"] >= 2.0) & (cohort["inr"] <= 3.0))
    heights = _observed(cohort["height_cm"])
    assert np.all((heights >= 100.0) & (heights <= 250.0))
    ages = _observed(cohort["age_decade"])
    assert np.all((ages >= 1) & (ages <= 9))


def test_missingness_present_at_calibrated_scale():
    cohort = generate_synthetic_cohort(2000, seed=3)
    rifampin_missing = np.mean(np.isnan(cohort["rifampin"]))
    height_missing = np.mean(np.isnan(cohort["height_cm"]))
    # table rates: rifampin about 47% missing, height about 16%
    assert 0.37 <= rifampin_missing <= 0.57
    assert 0.10 <= height_missing <= 0.23
    assert not np.isnan(cohort["race"]).any()
    assert not np.isnan(cohort["gender"]).any()


def test_relative_error_bands_are_separated():
    """Complete rows fall in the safe or risky band, never between."""
    cohort = generate_synthetic_cohort(800, seed=4)
    safe_cap = SAFE_REL / (1.0 - SAFE_REL)
    risky_floor = RISKY_REL_LOW / (1.0 + RISKY_REL_LOW)
    inputs = ("age_decade", "height_cm", "weight_kg", "race", "enzyme", "amiodarone")
    complete = cohort.take(~np.isnan(np.array([cohort[name] for name in inputs])).any(axis=0))
    assert len(complete) > 100
    actual = complete["therapeutic_dose_mg_week"]
    rel = np.abs(weekly_doses(complete, DEFAULT_COEFFICIENTS) - actual) / actual
    in_gap = (safe_cap + 1e-9 < rel) & (rel < risky_floor - 1e-9)
    assert not in_gap.any()
    assert safe_cap < 0.15 < risky_floor  # the bands straddle the gate threshold


def test_both_gate_classes_present():
    cohort = generate_synthetic_cohort(400, seed=5)
    from dosegate.cohort import apply_imputation, fit_imputation
    imputed = apply_imputation(fit_imputation(cohort), cohort)
    labels = label_cohort(imputed, DEFAULT_COEFFICIENTS, GateConfig())
    assert labels.n_high_risk > 40
    assert labels.n_safe > 40


def test_covariates_are_binary_or_missing():
    cohort = generate_synthetic_cohort(300, seed=6)
    for name in BINARY_COVARIATES:
        assert set(_observed(cohort[name]).tolist()) <= {0.0, 1.0}
