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
from .errors import DegenerateGateError, DegenerateLabelsError, DomainError, NonPhysicalDoseError
from .features import (
    FeatureMatrix,
    default_feature_names,
    encode_features,
    feature_rows,
)
from .iwpc import DEFAULT_COEFFICIENTS, IwpcCoefficients, weekly_doses
from .metrics import EvalReport, confusion, mae, metrics, rmse
from .records import as_cohort
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
    high = _high_risk(predicted_mg_week, therapeutic_mg_week, config)
    return GateLabel.HIGH_RISK if high else GateLabel.SAFE_FOR_MODEL


def _high_risk(predicted, therapeutic, config: GateConfig):
    """The labelling rule on scalars or arrays alike."""
    return np.abs(predicted - therapeutic) / therapeutic > config.threshold


@dataclass(frozen=True)
class CohortLabels:
    """Gate labels (+1 HighRisk, -1 SafeForModel) plus the predicted
    doses (mg/week) they were set from, one per row."""

    labels: np.ndarray
    n_high_risk: int
    n_safe: int
    doses: np.ndarray

    def signs(self) -> np.ndarray:
        return self.labels.astype(float)


def label_cohort(data, coeffs: IwpcCoefficients = DEFAULT_COEFFICIENTS,
                 config: GateConfig = GateConfig()) -> CohortLabels:
    """Gate label and predicted dose for every row of an imputed Cohort
    (or sequence of records), plus class counts. The first row that
    cannot be labelled raises, named in the message."""
    cohort = as_cohort(data)
    therapeutic = cohort["therapeutic_dose_mg_week"]
    bad_therapeutic = np.flatnonzero(~(therapeutic > 0))
    first_bad = bad_therapeutic[0] if bad_therapeutic.size else len(cohort)
    try:
        doses = weekly_doses(cohort, coeffs)
    except (DomainError, NonPhysicalDoseError) as exc:
        if exc.row < first_bad:
            raise type(exc)(f"record {exc.row}: {exc}") from exc
    if first_bad < len(cohort):
        raise DomainError(f"record {first_bad}: therapeutic dose must be positive")
    high = _high_risk(doses, therapeutic, config)
    labels = np.where(high, int(GateLabel.HIGH_RISK), int(GateLabel.SAFE_FOR_MODEL))
    n_high = int(np.count_nonzero(high))
    return CohortLabels(labels=labels, n_high_risk=n_high,
                        n_safe=len(cohort) - n_high, doses=doses)


def shrink_test_set(test_features: FeatureMatrix, classifier: SvmModel) -> np.ndarray:
    """Indices the classifier keeps (predicts SafeForModel, i.e. score < 0)."""
    scores = decision_values_from_matrix(classifier, test_features)
    return np.flatnonzero(scores < 0.0)


def classify_records(model: SvmModel, data) -> tuple[np.ndarray, np.ndarray]:
    """Decision values and gate signs for an imputed Cohort (or sequence
    of records), raw-space path."""
    rows = feature_rows(data, model.feature_names)
    scores = decision_values(model, rows)
    return scores, np.where(scores >= 0.0, 1, -1)


def evaluation_report(truth, predicted, actual_dose, model_dose) -> EvalReport:
    """The gate's classifier metrics (HighRisk positive) and the dose
    model's error on the whole test set and on the rows the gate keeps.
    A gate that keeps no row is a DegenerateGateError carrying the
    whole-set figures."""
    cm = confusion(truth, predicted)
    rmse_original = rmse(actual_dose, model_dose)
    mae_original = mae(actual_dose, model_dose)
    kept = np.flatnonzero(predicted == -1)
    if kept.size == 0:
        raise DegenerateGateError(
            "gate classified every test patient HighRisk; nothing to evaluate on "
            f"(original rmse {rmse_original:.3f})",
            report={"rmse_original": rmse_original, "mae_original": mae_original,
                    "confusion": cm},
        )
    summary = metrics(cm)
    return EvalReport(
        accuracy=summary.accuracy,
        sensitivity=summary.sensitivity,
        specificity=summary.specificity,
        rmse_original=rmse_original,
        rmse_shrunken=rmse(actual_dose[kept], model_dose[kept]),
        mae_original=mae_original,
        mae_shrunken=mae(actual_dose[kept], model_dose[kept]),
        shrink_ratio=kept.size / len(truth),
        confusion=cm,
    )


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
    train_cohort, test_cohort = as_cohort(train_records), as_cohort(test_records)
    if not len(train_cohort) or not len(test_cohort):
        raise DomainError("gated evaluation needs non-empty train and test cohorts")

    plan = fit_imputation(train_cohort)
    imputed_train = apply_imputation(plan, train_cohort)
    imputed_test = apply_imputation(plan, test_cohort)
    if feature_names is None:
        feature_names = default_feature_names(train_cohort, min_minority_fraction)
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

    report = evaluation_report(truth, predicted, test_cohort["therapeutic_dose_mg_week"],
                               test_labels.doses)
    return GatedEvaluation(
        report=report,
        model=model,
        plan=plan,
        feature_names=feature_names,
        train_labels=train_labels,
        test_labels=test_labels,
    )
