"""Confusion-matrix and dose-error metrics.

HighRisk is the positive class throughout. Sensitivity or specificity
with an empty denominator is reported as None and rendered "—", never
silently coerced to 0 or NaN; small validation folds do hit this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    def __post_init__(self):
        for name in ("tp", "fp", "tn", "fn"):
            value = getattr(self, name)
            if value < 0 or int(value) != value:
                raise DomainError(f"{name} count must be a non-negative integer")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricSummary:
    accuracy: float
    sensitivity: float | None
    specificity: float | None


@dataclass(frozen=True)
class EvalReport:
    """Gated-evaluation outcome: classifier quality plus dose errors
    on the full test set and on the Safe-classified (shrunken) subset.
    An empty subset has no shrunken errors (None)."""

    accuracy: float | None
    sensitivity: float | None
    specificity: float | None
    rmse_original: float
    rmse_shrunken: float | None
    mae_original: float
    mae_shrunken: float | None
    shrink_ratio: float
    confusion: ConfusionMatrix | None = None

    def __post_init__(self):
        if not 0.0 <= self.shrink_ratio <= 1.0:
            raise DomainError("shrink_ratio must lie in [0, 1]")
        empty = self.shrink_ratio == 0.0
        if (self.rmse_shrunken is None) != empty or (self.mae_shrunken is None) != empty:
            raise DomainError("the shrunken errors are None exactly when "
                              "the shrunken set is empty")


def _label_signs(labels) -> np.ndarray:
    signs = np.asarray(labels)
    if signs.ndim != 1 or signs.size == 0:
        raise DomainError("labels must be a non-empty list")
    if signs.dtype.kind not in "iuf" or not np.all((signs == 1) | (signs == -1)):
        raise DomainError("labels must be -1 (safe) or +1 (high risk)")
    return signs.astype(int)


def confusion(truth, predicted) -> ConfusionMatrix:
    """Count agreement with HighRisk (+1) as the positive class."""
    t = _label_signs(truth)
    p = _label_signs(predicted)
    if t.shape != p.shape:
        raise DomainError(f"length mismatch: {t.size} truths vs {p.size} predictions")
    return ConfusionMatrix(
        tp=int(np.sum((t == 1) & (p == 1))),
        fp=int(np.sum((t == -1) & (p == 1))),
        tn=int(np.sum((t == -1) & (p == -1))),
        fn=int(np.sum((t == 1) & (p == -1))),
    )


def metrics(cm: ConfusionMatrix) -> MetricSummary:
    """accuracy = (TP+TN)/total, sensitivity = TP/(TP+FN),
    specificity = TN/(TN+FP); empty denominators yield None."""
    if cm.total == 0:
        raise DomainError("cannot compute metrics of an empty confusion matrix")
    accuracy = (cm.tp + cm.tn) / cm.total
    sensitivity = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn > 0 else None
    specificity = cm.tn / (cm.tn + cm.fp) if cm.tn + cm.fp > 0 else None
    return MetricSummary(accuracy=accuracy, sensitivity=sensitivity, specificity=specificity)


def _paired(actual, predicted):
    a = np.asarray(actual, dtype=float)
    p = np.asarray(predicted, dtype=float)
    if a.ndim != 1 or p.ndim != 1 or a.shape != p.shape:
        raise DomainError(f"need equal-length vectors, got {a.shape} and {p.shape}")
    if a.size == 0:
        raise DomainError("error metrics need at least one pair")
    return a, p


def rmse(actual, predicted) -> float:
    a, p = _paired(actual, predicted)
    return float(np.sqrt(np.mean((a - p) ** 2)))


def mae(actual, predicted) -> float:
    a, p = _paired(actual, predicted)
    return float(np.mean(np.abs(a - p)))


def fmt_metric(value) -> str:
    """Human rendering: a percentage, or a dash for undefined."""
    return "—" if value is None else f"{100.0 * value:.2f}"
