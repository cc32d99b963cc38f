"""Safety gate: label patients by dose-model error, train and apply
the classifier that screens HighRisk patients out of the test set.

A patient is HighRisk when the clinical model's predicted dose misses
the therapeutic dose by strictly more than the threshold fraction
(default 15%), measured in mg/week against the therapeutic dose. The
gated workflow evaluates the dose model on the full test set and again
on the Safe-classified remainder.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .cohort import ImputationPlan, apply_imputation, fit_imputation
from .errors import DegenerateGateError, DegenerateLabelsError, DomainError
from .features import (
    FeatureMatrix,
    default_feature_names,
    encode_features,
    feature_rows,
)
from .iwpc import DEFAULT_COEFFICIENTS, IwpcCoefficients, predict_weekly_dose
from .metrics import ConfusionMatrix, EvalReport, confusion, mae, metrics, rmse
from .svm import SvmModel, TrainConfig, decision_values, decision_values_from_matrix, train

GATE_MODES = ("trained", "identity", "oracle")


class GateLabel(IntEnum):
    SAFE_FOR_MODEL = -1
    HIGH_RISK = 1


@dataclass(frozen=True)
class GateConfig:
    """Relative-error threshold; the denominator is the therapeutic dose."""

    threshold: float = 0.15

    def __post_init__(self):
        if not 0.0 < self.threshold < 1.0:
            raise DomainError("gate threshold must lie in (0, 1)")


def label_record(predicted_mg_week: float, therapeutic_mg_week: float,
                 config: GateConfig = GateConfig()) -> GateLabel:
    """Strictly more than the threshold away -> HighRisk; the exact
    boundary stays Safe."""
    if not therapeutic_mg_week > 0:
        raise DomainError("therapeutic dose must be positive")
    relative = abs(predicted_mg_week - therapeutic_mg_week) / therapeutic_mg_week
    return GateLabel.HIGH_RISK if relative > config.threshold else GateLabel.SAFE_FOR_MODEL


@dataclass(frozen=True)
class CohortLabels:
    """Gate labels plus the predicted doses (mg/week) they were set from."""

    labels: tuple
    n_high_risk: int
    n_safe: int
    doses: tuple

    def signs(self) -> np.ndarray:
        return np.array([int(v) for v in self.labels], dtype=float)


def label_cohort(records, coeffs: IwpcCoefficients = DEFAULT_COEFFICIENTS,
                 config: GateConfig = GateConfig()) -> CohortLabels:
    """Gate label and predicted dose for every (imputed) record, plus
    class counts."""
    labels = []
    doses = []
    for i, record in enumerate(records):
        try:
            predicted = predict_weekly_dose(record, coeffs)
            labels.append(label_record(predicted, record.therapeutic_dose_mg_week, config))
        except DomainError as exc:
            raise type(exc)(f"record {i}: {exc}") from exc
        doses.append(predicted)
    n_high = sum(1 for v in labels if v == GateLabel.HIGH_RISK)
    return CohortLabels(labels=tuple(labels), n_high_risk=n_high,
                        n_safe=len(labels) - n_high, doses=tuple(doses))


def shrink_test_set(test_features: FeatureMatrix, classifier: SvmModel) -> np.ndarray:
    """Indices the classifier keeps (predicts SafeForModel, i.e. score < 0)."""
    scores = decision_values_from_matrix(classifier, test_features)
    return np.flatnonzero(scores < 0.0)


def classify_records(model: SvmModel, records) -> tuple[np.ndarray, np.ndarray]:
    """Decision values and gate signs for imputed records, raw-space path."""
    rows = feature_rows(records, model.feature_names)
    scores = decision_values(model, rows)
    return scores, np.where(scores >= 0.0, 1, -1)


@dataclass(frozen=True)
class GatedEvaluation:
    """Everything the gated run produced, report first."""

    report: EvalReport
    model: SvmModel | None
    plan: ImputationPlan
    feature_names: tuple
    train_labels: CohortLabels
    test_labels: CohortLabels


def gated_evaluation(
    train_records,
    test_records,
    kernel,
    train_config: TrainConfig = TrainConfig(),
    gate_config: GateConfig = GateConfig(),
    coeffs: IwpcCoefficients = DEFAULT_COEFFICIENTS,
    gate_mode: str = "trained",
    feature_names=None,
    min_minority_fraction: float = 0.10,
) -> GatedEvaluation:
    """Run the full gated pipeline on a train/test pair.

    gate_mode "trained" fits the classifier on the training labels;
    "identity" keeps every test row (control); "oracle" uses the true
    labels (upper bound). Imputation and scaling always come from the
    training side only.
    """
    if gate_mode not in GATE_MODES:
        raise DomainError(f"gate_mode must be one of {GATE_MODES}")
    if not train_records or not test_records:
        raise DomainError("gated evaluation needs non-empty train and test cohorts")

    plan = fit_imputation(train_records)
    imputed_train = [apply_imputation(plan, r) for r in train_records]
    imputed_test = [apply_imputation(plan, r) for r in test_records]
    if feature_names is None:
        feature_names = default_feature_names(train_records, min_minority_fraction)
    feature_names = tuple(feature_names)

    train_labels = label_cohort(imputed_train, coeffs, gate_config)
    test_labels = label_cohort(imputed_test, coeffs, gate_config)
    truth = test_labels.signs().astype(int)

    model = None
    if gate_mode == "trained":
        if train_labels.n_high_risk == 0 or train_labels.n_safe == 0:
            raise DegenerateLabelsError(
                "training labels are single-class; nothing to train the gate on"
            )
        fm_train = encode_features(imputed_train, feature_names, labels=train_labels.signs())
        model = train(fm_train, kernel=kernel, config=train_config)
        fm_test = encode_features(imputed_test, feature_names, scaler=fm_train)
        scores = decision_values_from_matrix(model, fm_test)
        predicted = np.where(scores >= 0.0, 1, -1)
    elif gate_mode == "oracle":
        predicted = truth.copy()
    else:
        predicted = np.full(truth.shape, -1, dtype=int)

    cm = confusion(truth, predicted)
    summary = metrics(cm)

    actual_dose = np.array([r.therapeutic_dose_mg_week for r in test_records])
    model_dose = np.array(test_labels.doses)
    rmse_original = rmse(actual_dose, model_dose)
    mae_original = mae(actual_dose, model_dose)

    kept = np.flatnonzero(predicted == -1)
    if kept.size == 0:
        raise DegenerateGateError(
            "gate classified every test patient HighRisk; no shrunken set",
            report={
                "rmse_original": rmse_original,
                "mae_original": mae_original,
                "confusion": cm,
            },
        )
    report = EvalReport(
        accuracy=summary.accuracy,
        sensitivity=summary.sensitivity,
        specificity=summary.specificity,
        rmse_original=rmse_original,
        rmse_shrunken=rmse(actual_dose[kept], model_dose[kept]),
        mae_original=mae_original,
        mae_shrunken=mae(actual_dose[kept], model_dose[kept]),
        shrink_ratio=kept.size / truth.size,
        confusion=cm,
    )
    return GatedEvaluation(
        report=report,
        model=model,
        plan=plan,
        feature_names=feature_names,
        train_labels=train_labels,
        test_labels=test_labels,
    )
