"""Gate labeling and the gated-application workflow."""

import numpy as np
import pytest

from helpers import make_patient, stack

from dosegate.cohort import apply_imputation, fit_imputation
from dosegate.errors import DegenerateGateError, DomainError, NonPhysicalDoseError, SchemaError
from dosegate.gate import (
    GateConfig,
    GateLabel,
    classify_records,
    evaluate_gate,
    fit_gate,
    label_cohort,
)
from dosegate.iwpc import DEFAULT_COEFFICIENTS, IwpcCoefficients, predict_weekly_dose
from dosegate.kernels import KernelSpec
from dosegate.svm import TrainConfig, decision_values, score_signs, train
from dosegate.synth import generate_synthetic_cohort

CFG = GateConfig()
SAFE, HIGH = GateLabel.SAFE_FOR_MODEL, GateLabel.HIGH_RISK


def _flat(root: float) -> IwpcCoefficients:
    """Coefficients under which every patient's dose is ``root`` squared."""
    return IwpcCoefficients(intercept=root, age_per_decade=0.0, height_per_cm=0.0,
                            weight_per_kg=0.0)


def _labels(therapeutic, config=CFG, root=6.0) -> list:
    """Labels of patients with these therapeutic doses, each predicted
    ``root`` squared (36 mg/week by default)."""
    cohort = stack([make_patient(therapeutic_dose_mg_week=t) for t in therapeutic])
    return label_cohort(cohort, _flat(root), config).labels.tolist()


def test_label_values():
    assert GateLabel.SAFE_FOR_MODEL == -1
    assert GateLabel.HIGH_RISK == 1


def test_large_error_is_high_risk():
    # 36 is 20% above 30 and 20% below 45
    assert _labels([30.0, 45.0]) == [HIGH, HIGH]


def test_exact_threshold_is_safe():
    # 36 vs 30 is exactly 20%; the rule is strict
    assert _labels([30.0], GateConfig(threshold=0.2)) == [SAFE]


def test_perfect_prediction_is_safe():
    assert _labels([36.0]) == [SAFE]


def test_label_scale_invariance():
    rng = np.random.default_rng(1)
    for _ in range(100):
        root = float(rng.uniform(2.5, 9.0))
        ther = float(rng.uniform(5, 80))
        c = float(rng.uniform(0.01, 50))
        assert _labels([ther], root=root) == _labels([c * ther], root=root * np.sqrt(c))


def test_threshold_validation():
    with pytest.raises(DomainError):
        GateConfig(threshold=0.0)
    with pytest.raises(DomainError):
        GateConfig(threshold=1.0)


def test_cohort_with_exact_predictions_all_safe():
    cohort = stack([make_patient(
        age_decade=age,
        therapeutic_dose_mg_week=predict_weekly_dose(make_patient(age_decade=age),
                                                     DEFAULT_COEFFICIENTS),
    ) for age in range(3, 8)])
    labels = label_cohort(cohort, DEFAULT_COEFFICIENTS, CFG)
    assert labels.n_safe == 5 and labels.n_high_risk == 0
    assert all(v == SAFE for v in labels.labels)
    assert tuple(labels.doses) == tuple(cohort["therapeutic_dose_mg_week"])


def test_empty_cohort_empty_labels():
    labels = label_cohort(make_patient().take([]), DEFAULT_COEFFICIENTS, CFG)
    assert tuple(labels.labels) == () and labels.n_safe == 0 and labels.n_high_risk == 0
    assert tuple(labels.doses) == ()


def test_labels_ignore_unrelated_covariates():
    a = make_patient(aspirin=0, diabetes=1)
    b = make_patient(aspirin=1, diabetes=0)
    la = label_cohort(a, DEFAULT_COEFFICIENTS, CFG).labels[0]
    lb = label_cohort(b, DEFAULT_COEFFICIENTS, CFG).labels[0]
    assert la == lb


def _toy_gate_model(signs):
    """Train a model that reproduces the requested sign pattern."""
    rng = np.random.default_rng(0)
    x = np.array([[float(s), rng.normal() * 0.01] for s in signs])
    labels = np.array(signs, dtype=float)
    return train(x, labels, kernel=KernelSpec(variant="linear"),
                 config=TrainConfig(c_regularization=1e4, balance_classes=False,
                                    kkt_tolerance=1e-6, max_passes=400)), x


def test_shrink_indices_follow_predictions():
    model, x = _toy_gate_model([-1, 1, -1, 1])
    kept = np.flatnonzero(score_signs(decision_values(model, x)) < 0)
    assert kept.tolist() == [0, 2]


def test_shrink_schema_mismatch():
    # the toy model's features (f0, f1) are not features of a cohort
    model, _ = _toy_gate_model([-1, 1, -1, 1])
    with pytest.raises(SchemaError):
        classify_records(model, stack([make_patient(), make_patient(age_decade=6)]))


def _split_synthetic(n=260, seed=5):
    cohort = generate_synthetic_cohort(n, seed)
    return cohort.take(slice(0, n // 2)), cohort.take(slice(n // 2, None))


def test_identity_gate_preserves_metrics():
    train_recs, test_recs = _split_synthetic()
    report, _ = evaluate_gate(None, fit_imputation(train_recs), test_recs,
                              gate_mode="identity")
    assert report.shrink_ratio == 1.0
    assert report.rmse_shrunken == report.rmse_original
    assert report.mae_shrunken == report.mae_original


def test_oracle_gate_bounds_and_threshold():
    train_recs, test_recs = _split_synthetic(seed=6)
    r, _ = evaluate_gate(None, fit_imputation(train_recs), test_recs, gate_mode="oracle")
    assert r.rmse_shrunken <= r.rmse_original
    assert r.mae_shrunken <= r.mae_original
    assert r.accuracy == 1.0
    assert 0.0 < r.shrink_ratio <= 1.0


def test_trained_gate_returns_model_and_plan():
    train_recs, test_recs = _split_synthetic(seed=7)
    fitted = fit_gate(train_recs, KernelSpec(), c_grid=(1.0,),
                      train_config=TrainConfig(seed=7))
    report, _ = evaluate_gate(fitted.model, fitted.plan, test_recs)
    assert fitted.model is not None
    assert fitted.plan is not None
    assert fitted.selection is None
    assert 0.0 < report.shrink_ratio <= 1.0
    assert len(fitted.model.feature_names) >= 5


def test_degenerate_gate_carries_original_metrics():
    # every test dose is wildly wrong, so the oracle keeps nothing
    train_recs, _ = _split_synthetic(seed=8)
    bad_test = stack([make_patient(therapeutic_dose_mg_week=500.0 + i) for i in range(30)])
    with pytest.raises(DegenerateGateError) as info:
        evaluate_gate(None, fit_imputation(train_recs), bad_test, gate_mode="oracle")
    assert info.value.report is not None
    assert info.value.report["rmse_original"] > 0


def test_classify_records_matches_decision_sign():
    train_recs, test_recs = _split_synthetic(seed=9)
    fitted = fit_gate(train_recs, KernelSpec(), c_grid=(1.0,),
                      train_config=TrainConfig(seed=9))
    imputed = apply_imputation(fitted.plan, test_recs)
    scores, signs = classify_records(fitted.model, imputed)
    assert np.all((scores >= 0) == (signs == 1))
    assert set(np.unique(signs)) <= {-1, 1}


def test_label_cohort_names_first_offending_row():
    # under this intercept a 250 kg patient keeps a positive predictor and
    # an 80 kg one does not
    coeffs = IwpcCoefficients(intercept=-3.0)
    heavy, light = make_patient(weight_kg=250.0), make_patient(weight_kg=80.0)
    no_height = make_patient(height_cm=None)
    with pytest.raises(NonPhysicalDoseError, match="record 1"):
        label_cohort(stack([heavy, light, no_height]), coeffs, CFG)
    with pytest.raises(DomainError, match="record 1: dose model needs height_cm"):
        label_cohort(stack([heavy, no_height, light]), coeffs, CFG)
    with pytest.raises(NonPhysicalDoseError, match="record 0"):
        label_cohort(stack([light, heavy]), coeffs, CFG)
