"""Synthetic cohort generator: calibration, determinism, signal structure."""

import numpy as np

from dosegate.cohort import cohort_to_text
from dosegate.gate import GateConfig, label_cohort
from dosegate.iwpc import DEFAULT_COEFFICIENTS, predict_weekly_dose
from dosegate.records import BINARY_COVARIATES, Race, RawPatientRecord
from dosegate.synth import DEFAULT_SYNTHETIC, generate_synthetic_cohort


def test_height_calibration():
    records = generate_synthetic_cohort(1000, seed=0)
    heights = [r.height_cm for r in records if r.height_cm is not None]
    assert abs(np.mean(heights) - 169.7) <= 1.5


def test_race_frequency_calibration():
    records = generate_synthetic_cohort(1000, seed=1)
    races = [r.race for r in records if r.race is not None]
    n = len(races)
    white = sum(1 for r in races if r == Race.WHITE) / n
    black = sum(1 for r in races if r == Race.AFRICAN_AMERICAN) / n
    asian = sum(1 for r in races if r == Race.ASIAN) / n
    assert abs(white - 0.63) <= 0.04
    assert abs(black - 0.15) <= 0.04
    assert abs(asian - 0.22) <= 0.04


def test_same_seed_byte_identical():
    a = generate_synthetic_cohort(300, seed=7)
    b = generate_synthetic_cohort(300, seed=7)
    assert cohort_to_text(a) == cohort_to_text(b)
    c = generate_synthetic_cohort(300, seed=8)
    assert cohort_to_text(a) != cohort_to_text(c)


def test_records_satisfy_inclusion_rules():
    records = generate_synthetic_cohort(500, seed=2)
    assert len(records) == 500
    for r in records:
        assert isinstance(r, RawPatientRecord)
        assert r.therapeutic_dose_mg_week > 0
        assert 2.0 <= r.inr <= 3.0
        if r.height_cm is not None:
            assert 100.0 <= r.height_cm <= 250.0
        if r.age_decade is not None:
            assert 1 <= r.age_decade <= 9


def test_missingness_present_at_calibrated_scale():
    records = generate_synthetic_cohort(2000, seed=3)
    rifampin_missing = sum(
        1 for r in records if r.covariates["rifampin"] is None) / len(records)
    height_missing = sum(1 for r in records if r.height_cm is None) / len(records)
    # table rates: rifampin about 47% missing, height about 16%
    assert 0.37 <= rifampin_missing <= 0.57
    assert 0.10 <= height_missing <= 0.23
    assert all(r.race is not None for r in records)
    assert all(r.gender is not None for r in records)


def test_relative_error_bands_are_separated():
    """Complete records fall in the safe or risky band, never between."""
    records = generate_synthetic_cohort(800, seed=4)
    config = DEFAULT_SYNTHETIC
    safe_cap = config.safe_rel / (1.0 - config.safe_rel)
    risky_floor = config.risky_rel_low / (1.0 + config.risky_rel_low)
    complete = [
        r for r in records
        if r.age_decade is not None and r.height_cm is not None
        and r.weight_kg is not None and r.race is not None
        and r.covariates["enzyme"] is not None
        and r.covariates["amiodarone"] is not None
    ]
    assert len(complete) > 100
    in_gap = 0
    for r in complete:
        predicted = predict_weekly_dose(r, DEFAULT_COEFFICIENTS)
        rel = abs(predicted - r.therapeutic_dose_mg_week) / r.therapeutic_dose_mg_week
        if safe_cap + 1e-9 < rel < risky_floor - 1e-9:
            in_gap += 1
    assert in_gap == 0
    assert safe_cap < 0.15 < risky_floor  # the bands straddle the gate threshold


def test_both_gate_classes_present():
    records = generate_synthetic_cohort(400, seed=5)
    from dosegate.cohort import apply_imputation, fit_imputation
    plan = fit_imputation(records)
    imputed = [apply_imputation(plan, r) for r in records]
    labels = label_cohort(imputed, DEFAULT_COEFFICIENTS, GateConfig())
    assert labels.n_high_risk > 40
    assert labels.n_safe > 40


def test_covariates_are_binary_or_missing():
    records = generate_synthetic_cohort(300, seed=6)
    for r in records:
        for name in BINARY_COVARIATES:
            assert r.covariates[name] in (0, 1, None)
