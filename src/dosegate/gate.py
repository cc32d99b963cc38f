"""Safety gate: label patients by dose-model error, train and apply
the classifier that screens HighRisk patients out of the test set.

A patient is HighRisk when the clinical model's predicted dose misses
the therapeutic dose by strictly more than the threshold fraction
(default 15%), measured in mg/week against the therapeutic dose. The
gated workflow is two steps, which the CLI's ``train`` and ``evaluate``
run as they are: ``fit_gate`` imputes, labels, encodes and fits the
classifier on the training cohort, and ``evaluate_gate`` evaluates the
dose model on the full test set and again on the Safe-classified
remainder.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import IntEnum

import numpy as np

from .cohort import ImputationPlan, apply_imputation, fit_imputation
from .crossval import DEFAULT_C_GRID, CSelection, select_c
from .errors import DegenerateGateError, DegenerateLabelsError, DomainError, NonPhysicalDoseError
from .features import default_feature_names, encode_features, feature_rows
from .iwpc import DEFAULT_COEFFICIENTS, IwpcCoefficients, weekly_doses
from .kernels import KernelSpec
from .metrics import EvalReport, confusion, mae, metrics, rmse
from .records import Cohort
from .svm import SvmModel, TrainConfig, decision_values, pivoted_cholesky, score_signs, train

# trained: the classifier decides; identity keeps every test row (the
# control); oracle keeps the rows whose true label is Safe (the upper bound)
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


@dataclass(frozen=True)
class CohortLabels:
    """Gate labels (+1 HighRisk, -1 SafeForModel) plus the predicted
    doses (mg/week) they were set from, one per row."""

    labels: np.ndarray
    n_high_risk: int
    n_safe: int
    doses: np.ndarray


def label_cohort(cohort: Cohort, coeffs: IwpcCoefficients = DEFAULT_COEFFICIENTS,
                 config: GateConfig = GateConfig()) -> CohortLabels:
    """Gate label and predicted dose for every row of an imputed Cohort,
    plus class counts. A row is HighRisk when its predicted dose is
    strictly more than the threshold fraction away from its therapeutic
    dose; the exact boundary stays Safe. The first row the dose model
    cannot take raises, named in the message."""
    therapeutic = cohort["therapeutic_dose_mg_week"]
    try:
        doses = weekly_doses(cohort, coeffs)
    except (DomainError, NonPhysicalDoseError) as exc:
        raise type(exc)(f"record {exc.row}: {exc}") from exc
    high = np.abs(doses - therapeutic) / therapeutic > config.threshold
    labels = np.where(high, int(GateLabel.HIGH_RISK), int(GateLabel.SAFE_FOR_MODEL))
    n_high = int(np.count_nonzero(high))
    return CohortLabels(labels=labels, n_high_risk=n_high,
                        n_safe=len(cohort) - n_high, doses=doses)


def classify_records(model: SvmModel, cohort: Cohort) -> tuple[np.ndarray, np.ndarray]:
    """Decision values and gate signs for an imputed Cohort."""
    scores = decision_values(model, feature_rows(cohort, model.feature_names))
    return scores, score_signs(scores)


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
class FittedGate:
    """What fitting the gate produced; selection is None for a one-value
    C grid, which needs no cross-validation. factor is svm.pivoted_cholesky
    of the training rows: (V, False), or (None, indefinite) when every fit,
    the CV folds' included, went without one."""

    plan: ImputationPlan
    labels: CohortLabels
    selection: CSelection | None
    model: SvmModel
    factor: tuple


def fit_gate(train_cohort: Cohort, kernel: KernelSpec, c_grid=DEFAULT_C_GRID, cv_k: int = 10,
             train_config: TrainConfig = TrainConfig(),
             gate_config: GateConfig = GateConfig(),
             coeffs: IwpcCoefficients = DEFAULT_COEFFICIENTS) -> FittedGate:
    """Impute, label, encode and fit the gate on a training Cohort.

    The imputation plan and the scaler come from these rows only. C is
    picked by ``cv_k``-fold cross-validation seeded with
    ``train_config.seed`` when the grid has more than one value, and the
    final model is fit on every row at that C. The kernel on the rows is
    factored once, and every fit, each CV fold's included, takes that
    verdict: a fold solves on its rows of the factor, or goes to SMO.
    """
    if not c_grid:
        raise DomainError("the C grid must be non-empty")
    plan = fit_imputation(train_cohort)
    imputed = apply_imputation(plan, train_cohort)
    labels = label_cohort(imputed, coeffs, gate_config)
    if labels.n_high_risk == 0 or labels.n_safe == 0:
        raise DegenerateLabelsError(
            "training labels are single-class; nothing to train the gate on")
    feature_names = default_feature_names(train_cohort)
    x, means, scales = encode_features(imputed, feature_names)
    factor = pivoted_cholesky(kernel, x)
    selection = None
    c = float(c_grid[0])
    if len(c_grid) > 1:
        selection = select_c(x, labels.labels, kernel, factor, c_grid, k=cv_k,
                             base_config=train_config)
        c = selection.best_c
    model = replace(train(x, labels.labels, kernel,
                          replace(train_config, c_regularization=c), factor),
                    feature_names=feature_names, scaler_means=means, scaler_scales=scales)
    return FittedGate(plan=plan, labels=labels, selection=selection, model=model,
                      factor=factor)


def evaluate_gate(model: SvmModel | None, plan: ImputationPlan, test_cohort: Cohort,
                  gate_mode: str = "trained", gate_config: GateConfig = GateConfig(),
                  coeffs: IwpcCoefficients = DEFAULT_COEFFICIENTS
                  ) -> tuple[EvalReport, CohortLabels]:
    """The gated evaluation of a test Cohort imputed by the training
    plan, and the test rows' true labels.

    ``gate_mode`` is one of GATE_MODES; only "trained" reads the model.
    """
    if gate_mode not in GATE_MODES:
        raise DomainError(f"gate_mode must be one of {GATE_MODES}")
    imputed = apply_imputation(plan, test_cohort)
    labels = label_cohort(imputed, coeffs, gate_config)
    truth = labels.labels
    if gate_mode == "trained":
        _, predicted = classify_records(model, imputed)
    elif gate_mode == "oracle":
        predicted = truth.copy()
    else:
        predicted = np.full(truth.shape, -1, dtype=int)
    report = evaluation_report(truth, predicted, test_cohort["therapeutic_dose_mg_week"],
                               labels.doses)
    return report, labels
