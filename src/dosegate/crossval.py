"""k-fold cross-validation, C selection, and model comparison tables.

Folds are stratified by gate label by default (the HighRisk/Safe split
is roughly 77/23, so plain random folds can starve the minority class);
a flag restores plain random folds. Everything is seeded and
deterministic, and fold evaluation order is fixed by index.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateLabelsError, DomainError, DosegateError, NumericalError
from .features import FeatureMatrix
from .kernels import KernelSpec
from .metrics import confusion, fmt_metric, metrics
from .svm import TrainConfig, decision_values, decision_values_from_matrix, train

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


def _fold_assignment(labels: np.ndarray, k: int, seed: int, stratified: bool) -> list:
    """Deal indices round-robin; stratification orders them class-first
    so every fold sees both classes in near-cohort proportion."""
    rng = np.random.default_rng(seed)
    n = labels.size
    if stratified:
        neg = rng.permutation(np.flatnonzero(labels < 0))
        pos = rng.permutation(np.flatnonzero(labels > 0))
        ordered = np.concatenate([neg, pos])
    else:
        ordered = rng.permutation(n)
    return [ordered[f::k] for f in range(k)]


def kfold_cv(features: FeatureMatrix, k: int = 10, trainer=None, seed: int = 0,
             stratified: bool = True) -> CvResult:
    """Cross-validate a trainer callable (rows, labels) -> model.

    Every record validates exactly once; fold sizes differ by at most
    one. A fold whose training side is single-class is skipped with a
    recorded reason rather than failing the whole run.
    """
    if features.labels is None:
        raise DegenerateLabelsError("cross-validation needs labeled features")
    if trainer is None:
        raise DomainError("a trainer callable is required")
    n = features.n_rows
    if k < 2:
        raise DomainError("k must be at least 2")
    if k > n:
        raise DomainError(f"k={k} exceeds the {n} available rows")
    folds = _fold_assignment(features.labels, k, seed, stratified)

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
        model = trainer(features.x[mask], train_labels)
        scores = decision_values(model, features.x[val_idx])
        predicted = np.where(scores >= 0.0, 1, -1)
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
             base_config: TrainConfig = TrainConfig(),
             stratified: bool = True) -> CSelection:
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

        def trainer(rows, labels, _config=config):
            return train(rows, labels, kernel, _config)

        results[float(c)] = kfold_cv(features, k=k, trainer=trainer,
                                     seed=seed, stratified=stratified)
    candidates = [c for c, cv in results.items() if cv.n_converged == cv.n_trained]
    if not candidates:
        raise NumericalError("no C value converged on every cross-validation fold")
    best_c = min(candidates, key=lambda c: (-results[c].mean_accuracy, c))
    return CSelection(best_c=best_c, results=results)


@dataclass(frozen=True)
class ComparisonRow:
    name: str
    accuracy: float | None = None
    sensitivity: float | None = None
    specificity: float | None = None
    error: str | None = None


def compare_models(candidates, train_features: FeatureMatrix,
                   test_features: FeatureMatrix, sort_by: str = "accuracy") -> list:
    """Train each (name, kernel, config) candidate and score it on the
    test split; one Table-shaped row per candidate, errors included as
    rows rather than aborting the run."""
    if not candidates:
        raise DomainError("at least one candidate is required")
    if test_features.labels is None:
        raise DegenerateLabelsError("test features need labels to score against")
    if sort_by not in ("accuracy", "sensitivity", "specificity", "name"):
        raise DomainError(f"cannot sort by {sort_by!r}")

    seen: dict[str, int] = {}
    rows = []
    for name, kernel, config in candidates:
        seen[name] = seen.get(name, 0) + 1
        label = name if seen[name] == 1 else f"{name}#{seen[name]}"
        try:
            model = train(train_features, kernel=kernel, config=config)
            scores = decision_values_from_matrix(model, test_features)
            predicted = np.where(scores >= 0.0, 1, -1)
            summary = metrics(confusion(test_features.labels.astype(int), predicted))
            rows.append(ComparisonRow(
                name=label, accuracy=summary.accuracy,
                sensitivity=summary.sensitivity, specificity=summary.specificity,
            ))
        except DosegateError as exc:
            rows.append(ComparisonRow(name=label, error=str(exc)))

    def sort_key(row: ComparisonRow):
        if sort_by == "name":
            return (row.error is not None, row.name)
        value = getattr(row, sort_by)
        return (row.error is not None, value is None, -(value or 0.0), row.name)

    return sorted(rows, key=sort_key)


def render_comparison(rows, percent: bool = True) -> str:
    """Aligned text table: model, accuracy, sensitivity, specificity."""
    header = ("Model", "Accuracy", "Sensitivity", "Specificity")
    body = []
    for row in rows:
        if row.error is not None:
            body.append((row.name, f"error: {row.error}", "", ""))
        else:
            body.append((
                row.name,
                fmt_metric(row.accuracy, percent),
                fmt_metric(row.sensitivity, percent),
                fmt_metric(row.specificity, percent),
            ))
    widths = [max([len(header[i])] + [len(r[i]) for r in body]) for i in range(4)]
    lines = ["  ".join(h.ljust(widths[i]) for i, h in enumerate(header))]
    lines.append("  ".join("-" * w for w in widths))
    for r in body:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(4)).rstrip())
    return "\n".join(lines) + "\n"
