"""k-fold cross-validation and C selection.

Folds are stratified by gate label (the HighRisk/Safe split is roughly
77/23, so plain random folds can starve the minority class). Everything
is seeded and deterministic, and fold evaluation order is fixed by index.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateLabelsError, DomainError, NumericalError
from .features import FeatureMatrix
from .kernels import KernelSpec
from .metrics import confusion, metrics
from .svm import TrainConfig, decision_values, score_signs, train

DEFAULT_C_GRID = (0.1, 1.0, 10.0, 100.0)


@dataclass(frozen=True)
class FoldOutcome:
    fold: int
    n_validation: int
    accuracy: float | None = None
    sensitivity: float | None = None
    specificity: float | None = None
    skipped: bool = False
    reason: str = ""
    converged: bool | None = None  # None for a skipped fold


@dataclass(frozen=True)
class CvResult:
    folds: tuple
    mean_accuracy: float
    std_accuracy: float

    @property
    def n_skipped(self) -> int:
        return sum(1 for f in self.folds if f.skipped)

    @property
    def n_trained(self) -> int:
        return len(self.folds) - self.n_skipped

    @property
    def n_converged(self) -> int:
        return sum(1 for f in self.folds if f.converged)


def _fold_assignment(labels: np.ndarray, k: int, seed: int) -> list:
    """Deal indices round-robin, ordered class-first so every fold sees
    both classes in near-cohort proportion."""
    rng = np.random.default_rng(seed)
    neg = rng.permutation(np.flatnonzero(labels < 0))
    pos = rng.permutation(np.flatnonzero(labels > 0))
    ordered = np.concatenate([neg, pos])
    return [ordered[f::k] for f in range(k)]


def kfold_cv(features: FeatureMatrix, kernel: KernelSpec,
             config: TrainConfig = TrainConfig(), k: int = 10, seed: int = 0) -> CvResult:
    """Cross-validate the trainer with this kernel and configuration.

    Every record validates exactly once; fold sizes differ by at most
    one. A fold whose training side is single-class is skipped with a
    recorded reason rather than failing the whole run.
    """
    if features.labels is None:
        raise DegenerateLabelsError("cross-validation needs labeled features")
    n = features.n_rows
    if k < 2:
        raise DomainError("k must be at least 2")
    if k > n:
        raise DomainError(f"k={k} exceeds the {n} available rows")
    folds = _fold_assignment(features.labels, k, seed)

    outcomes = []
    for f, val_idx in enumerate(folds):
        mask = np.ones(n, dtype=bool)
        mask[val_idx] = False
        train_labels = features.labels[mask]
        if np.all(train_labels == train_labels[0]):
            outcomes.append(FoldOutcome(
                fold=f, n_validation=val_idx.size, skipped=True,
                reason="training side is single-class",
            ))
            continue
        model = train(features.x[mask], train_labels, kernel, config)
        predicted = score_signs(decision_values(model, features.x[val_idx]))
        summary = metrics(confusion(features.labels[val_idx].astype(int), predicted))
        outcomes.append(FoldOutcome(
            fold=f, n_validation=val_idx.size, accuracy=summary.accuracy,
            sensitivity=summary.sensitivity, specificity=summary.specificity,
            converged=bool(model.converged),
        ))
    scored = [o.accuracy for o in outcomes if not o.skipped]
    if not scored:
        raise DegenerateLabelsError("every fold was skipped; labels too degenerate")
    return CvResult(
        folds=tuple(outcomes),
        mean_accuracy=float(np.mean(scored)),
        std_accuracy=float(np.std(scored)),
    )


@dataclass(frozen=True)
class CSelection:
    best_c: float
    results: dict  # C -> CvResult


def select_c(features: FeatureMatrix, kernel: KernelSpec,
             c_grid=DEFAULT_C_GRID, k: int = 10, seed: int = 0,
             base_config: TrainConfig = TrainConfig()) -> CSelection:
    """Pick C by mean CV accuracy; ties go to the smaller (safer) C.

    A C with a fold whose fit did not converge is not a candidate: its
    accuracy describes a model short of the optimum. When no C is left
    the selection fails with a NumericalError.
    """
    if not c_grid:
        raise DomainError("the C grid must be non-empty")
    results = {}
    for c in c_grid:
        config = replace(base_config, c_regularization=float(c))
        results[float(c)] = kfold_cv(features, kernel, config, k=k, seed=seed)
    candidates = [c for c, cv in results.items() if cv.n_converged == cv.n_trained]
    if not candidates:
        raise NumericalError("no C value converged on every cross-validation fold")
    best_c = min(candidates, key=lambda c: (-results[c].mean_accuracy, c))
    return CSelection(best_c=best_c, results=results)
