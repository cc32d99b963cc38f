"""k-fold cross-validation and C selection.

Folds are stratified by gate label (the HighRisk/Safe split is about
57/43 on the synthetic paper-scale cohort, 1,210 of 2,118 training
rows, and random folds would let it vary from fold to fold). Everything
is seeded and deterministic, and fold evaluation order is fixed by index.

select_c's (C, fold) fits are independent, so they are split among
processes, one per CPU this process may use for each BLAS thread: this
process forks one child for each process past the first, fits its own
share meanwhile, and reads the children's outcomes back through pipes
(a process pool costs more to start; README has the figures). Outcomes
are put back in grid-then-fold order, so the selection does not depend
on the process count.
"""

from __future__ import annotations

import os
import pickle
import signal
from dataclasses import dataclass, replace

import numpy as np

from .errors import DegenerateLabelsError, DomainError, NumericalError
from .kernels import KernelSpec
from .svm import TrainConfig, decision_values, score_signs, train

DEFAULT_C_GRID = (0.1, 1.0, 10.0, 100.0)


@dataclass(frozen=True)
class FoldOutcome:
    accuracy: float | None  # None for a skipped fold
    converged: bool | None  # None for a skipped fold


@dataclass(frozen=True)
class CvResult:
    folds: tuple
    mean_accuracy: float
    std_accuracy: float

    @property
    def n_skipped(self) -> int:
        return sum(1 for f in self.folds if f.accuracy is None)

    @property
    def n_trained(self) -> int:
        return len(self.folds) - self.n_skipped

    @property
    def n_converged(self) -> int:
        return sum(1 for f in self.folds if f.converged)


def _folds(labels: np.ndarray, k: int, seed: int) -> list:
    """The validation indices of each of ``k`` folds: indices dealt
    round-robin, ordered class-first so every fold sees both classes in
    near-cohort proportion."""
    if k < 2:
        raise DomainError("k must be at least 2")
    if k > labels.size:
        raise DomainError(f"k={k} exceeds the {labels.size} available rows")
    rng = np.random.default_rng(seed)
    neg = rng.permutation(np.flatnonzero(labels < 0))
    pos = rng.permutation(np.flatnonzero(labels > 0))
    ordered = np.concatenate([neg, pos])
    return [ordered[f::k] for f in range(k)]


def _fold_outcome(x: np.ndarray, labels: np.ndarray, kernel: KernelSpec,
                  factor: tuple, folds: list, config: TrainConfig,
                  f: int) -> FoldOutcome:
    """Fit on every fold but ``f`` with select_c's verdict ``factor`` (its
    rows of V, when there is one), and score the fit on fold ``f``. A fold
    whose training side is single-class is skipped, not failing the run."""
    val_idx = folds[f]
    mask = np.ones(labels.size, dtype=bool)
    mask[val_idx] = False
    train_labels = labels[mask]
    if np.all(train_labels == train_labels[0]):
        return FoldOutcome(accuracy=None, converged=None)
    model = train(x[mask], train_labels, kernel, config,
                  factor if factor[0] is None else (factor[0][mask], False))
    predicted = score_signs(decision_values(model, x[val_idx]))
    agreeing = int(np.count_nonzero(predicted == labels[val_idx]))
    return FoldOutcome(accuracy=agreeing / val_idx.size, converged=bool(model.converged))


def _cv_result(outcomes: list) -> CvResult:
    scored = [o.accuracy for o in outcomes if o.accuracy is not None]
    if not scored:
        raise DegenerateLabelsError("every fold was skipped; labels too degenerate")
    return CvResult(
        folds=tuple(outcomes),
        mean_accuracy=float(np.mean(scored)),
        std_accuracy=float(np.std(scored)),
    )


def _available_cpus() -> int:
    """How many fits may run at once: the CPUs this process may run on,
    shared among the BLAS threads each fit uses; 1 where it cannot fork
    workers or cannot tell.

    A worker keeps the BLAS thread count it inherits, because the fits'
    last digits follow it.
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


def _fold_outcomes(x: np.ndarray, labels: np.ndarray, kernel: KernelSpec,
                   factor: tuple, folds: list, tasks: list) -> list:
    """The FoldOutcome of each (config, fold index) task, in task order.

    The tasks are split among up to _available_cpus() processes, task i
    to process i mod their number: this process forks the others, which
    inherit the arrays, and runs share 0 itself. (A spawned process
    would import numpy and this package afresh and be sent the arrays,
    which costs more than a fit at the paper's size.) A child sends its
    (index, outcome or exception) list back pickled through a pipe and
    ends with os._exit, so it never runs its parent's code on return; a
    child that ends without sending it fails its share's first task with
    a NumericalError. A fit that raises raises here unchanged; where
    several do, the first in task order is raised, as when the tasks run
    one after another. Every child is reaped before this returns or
    raises.
    """
    workers = min(_available_cpus(), len(tasks))

    def share(first: int) -> list:
        # a share stops at its first failure: the tasks after it would
        # only be raised after that failure
        done = []
        for i in range(first, len(tasks), workers):
            config, f = tasks[i]
            try:
                done.append((i, _fold_outcome(x, labels, kernel, factor, folds, config, f)))
            except Exception as error:  # raised below, in task order
                done.append((i, error))
                break
        return done

    children = []  # (pid, its share's first task, its pipe's read end), until reaped
    try:
        for first in range(1, workers):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:
                status = 1
                try:
                    payload = pickle.dumps(share(first))
                    with open(write_end, "wb") as pipe:
                        pipe.write(payload)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_end)
            children.append((pid, first, open(read_end, "rb")))
        done = share(0)
        while children:
            pid, first, pipe = children[0]
            with pipe:
                payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            del children[0]
            if status == 0:
                done.extend(pickle.loads(payload))
            else:
                done.append((first, NumericalError(
                    "a cross-validation worker ended without its results")))
    finally:
        for pid, _, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    done.sort(key=lambda item: item[0])
    for _, outcome in done:
        if isinstance(outcome, BaseException):
            raise outcome
    return [outcome for _, outcome in done]


@dataclass(frozen=True)
class CSelection:
    best_c: float
    results: dict  # C -> CvResult


def select_c(x: np.ndarray, labels: np.ndarray, kernel: KernelSpec, factor: tuple,
             c_grid=DEFAULT_C_GRID, k: int = 10,
             base_config: TrainConfig = TrainConfig()) -> CSelection:
    """Pick C by mean ``k``-fold CV accuracy on standardized rows ``x``
    and their -1/+1 labels; ties go to the smaller (safer) C. The folds
    are dealt with ``base_config.seed``.

    ``factor`` is svm.pivoted_cholesky(kernel, x), and no fit factors
    again: given (V, False), each fit solves on its rows of V; given
    (None, indefinite), each goes to SMO with that verdict.

    Every row validates exactly once and fold sizes differ by at most
    one. A fold whose training side is single-class is skipped.

    A C with a fold whose fit did not converge is not a candidate: its
    accuracy describes a model short of the optimum. When no C is left
    the selection fails with a NumericalError.
    """
    if not c_grid:
        raise DomainError("the C grid must be non-empty")
    if labels.shape != (len(x),):
        raise DomainError("one label per row is required")
    configs = [replace(base_config, c_regularization=float(c)) for c in c_grid]
    folds = _folds(labels, k, base_config.seed)
    outcomes = _fold_outcomes(x, labels, kernel, factor, folds,
                              [(config, f) for config in configs for f in range(k)])
    results = {config.c_regularization: _cv_result(outcomes[i * k:(i + 1) * k])
               for i, config in enumerate(configs)}
    candidates = [c for c, cv in results.items() if cv.n_converged == cv.n_trained]
    if not candidates:
        raise NumericalError("no C value converged on every cross-validation fold")
    best_c = min(candidates, key=lambda c: (-results[c].mean_accuracy, c))
    return CSelection(best_c=best_c, results=results)
