"""k-fold cross-validation and C selection.

Folds are stratified by gate label (the HighRisk/Safe split is roughly
77/23, so plain random folds can starve the minority class). Everything
is seeded and deterministic, and fold evaluation order is fixed by index.

select_c's (C, fold) fits are independent, so they run in forked worker
processes, one per CPU this process may use for each BLAS thread, and
in this process when that leaves one. Outcomes are put back in
grid-then-fold order, so the selection does not depend on the worker
count.
"""

from __future__ import annotations

import os
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


def _folds(features: FeatureMatrix, k: int, seed: int) -> list:
    """The validation indices of each of ``k`` folds, after checking
    that the rows are labeled and can fill them."""
    if features.labels is None:
        raise DegenerateLabelsError("cross-validation needs labeled features")
    n = features.n_rows
    if k < 2:
        raise DomainError("k must be at least 2")
    if k > n:
        raise DomainError(f"k={k} exceeds the {n} available rows")
    return _fold_assignment(features.labels, k, seed)


def _fold_outcome(features: FeatureMatrix, kernel: KernelSpec, folds: list,
                  config: TrainConfig, f: int) -> FoldOutcome:
    """Fit on every fold but ``f`` and score the fit on fold ``f``. A fold
    whose training side is single-class is skipped with a recorded
    reason rather than failing the whole run."""
    val_idx = folds[f]
    mask = np.ones(features.n_rows, dtype=bool)
    mask[val_idx] = False
    train_labels = features.labels[mask]
    if np.all(train_labels == train_labels[0]):
        return FoldOutcome(fold=f, n_validation=val_idx.size, skipped=True,
                           reason="training side is single-class")
    model = train(features.x[mask], train_labels, kernel, config)
    predicted = score_signs(decision_values(model, features.x[val_idx]))
    summary = metrics(confusion(features.labels[val_idx].astype(int), predicted))
    return FoldOutcome(
        fold=f, n_validation=val_idx.size, accuracy=summary.accuracy,
        sensitivity=summary.sensitivity, specificity=summary.specificity,
        converged=bool(model.converged),
    )


def _cv_result(outcomes: list) -> CvResult:
    scored = [o.accuracy for o in outcomes if not o.skipped]
    if not scored:
        raise DegenerateLabelsError("every fold was skipped; labels too degenerate")
    return CvResult(
        folds=tuple(outcomes),
        mean_accuracy=float(np.mean(scored)),
        std_accuracy=float(np.std(scored)),
    )


def kfold_cv(features: FeatureMatrix, kernel: KernelSpec,
             config: TrainConfig = TrainConfig(), k: int = 10, seed: int = 0) -> CvResult:
    """Cross-validate the trainer with this kernel and configuration, in
    this process.

    Every record validates exactly once; fold sizes differ by at most
    one. A fold whose training side is single-class is skipped.
    """
    folds = _folds(features, k, seed)
    return _cv_result([_fold_outcome(features, kernel, folds, config, f) for f in range(k)])


def _available_cpus() -> int:
    """How many fits may run at once: the CPUs this process may run on,
    shared among the BLAS threads each fit uses; 1 where it cannot fork
    workers or cannot tell.

    A worker keeps the BLAS thread count it inherits, because the fits'
    last digits follow it. On 2 CPUs, two workers of two BLAS threads
    each made paper-scale ``train`` take 7.9-11.0 s, against 4.4-5.4 s
    in one process.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    # OpenBLAS takes its thread count from the first of these that is set
    # when it loads, and with none set it uses every CPU
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        value = os.environ.get(name, "").strip()
        if value.isdigit() and int(value) > 0:
            return max(1, len(os.sched_getaffinity(0)) // int(value))
    return 1


# What a worker's fits read: (features, kernel, folds), set by _share
# when the worker starts. Only workers set it; they inherit the arrays
# through fork, so no array is pickled.
_shared = None


def _share(features: FeatureMatrix, kernel: KernelSpec, folds: list) -> None:
    global _shared
    _shared = (features, kernel, folds)


def _shared_fold_outcome(task: tuple) -> FoldOutcome:
    config, f = task
    return _fold_outcome(*_shared, config, f)


def _fold_outcomes(features: FeatureMatrix, kernel: KernelSpec, folds: list,
                   tasks: list) -> list:
    """The FoldOutcome of each (config, fold index) task, in task order.

    The fits run in up to _available_cpus() workers. A fit that
    raises raises here unchanged; where several do, the first in task
    order is raised, as when the tasks run one after another.
    """
    workers = min(_available_cpus(), len(tasks))
    if workers <= 1:
        return [_fold_outcome(features, kernel, folds, config, f) for config, f in tasks]
    # imported here: importing them would add 16-22 ms to every CLI start
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, not spawn: a spawned worker would import numpy and this
    # package afresh and be sent the feature matrix, which costs more
    # than a cross-validation fit at the paper's size
    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                             initializer=_share,
                             initargs=(features, kernel, folds)) as pool:
        # map cancels the tasks not yet started when a result raises
        return list(pool.map(_shared_fold_outcome, tasks))


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
    configs = [replace(base_config, c_regularization=float(c)) for c in c_grid]
    folds = _folds(features, k, seed)
    outcomes = _fold_outcomes(features, kernel, folds,
                              [(config, f) for config in configs for f in range(k)])
    results = {config.c_regularization: _cv_result(outcomes[i * k:(i + 1) * k])
               for i, config in enumerate(configs)}
    candidates = [c for c, cv in results.items() if cv.n_converged == cv.n_trained]
    if not candidates:
        raise NumericalError("no C value converged on every cross-validation fold")
    best_c = min(candidates, key=lambda c: (-results[c].mean_accuracy, c))
    return CSelection(best_c=best_c, results=results)
