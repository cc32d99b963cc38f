"""Cross-validation folds and C selection."""

import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from helpers import separable_blobs, solver_limits

from dosegate import crossval
from dosegate.cli import main
from dosegate.crossval import _folds, select_c
from dosegate.errors import DegenerateLabelsError, DomainError, NumericalError
from dosegate.kernels import KernelSpec
from dosegate.svm import TrainConfig

LINEAR = KernelSpec(variant="linear")


def _labeled_rows(rng, n=40, signal=True):
    x, labels = separable_blobs(rng, n_per_class=n // 2)
    if not signal:
        labels = rng.permutation(labels)
    return x, labels


CONFIG = TrainConfig(c_regularization=10.0, balance_classes=False)


def _cv(x, labels, k, seed=0):
    """The cross-validation of CONFIG's C alone: select_c on a one-value grid."""
    selection = select_c(x, labels, LINEAR, (CONFIG.c_regularization,), k=k,
                         base_config=replace(CONFIG, seed=seed))
    return selection.results[CONFIG.c_regularization]


def test_fold_sizes_at_paper_cohort_size():
    rng = np.random.default_rng(0)
    labels = np.where(rng.random(4237) < 0.77, 1.0, -1.0)
    folds = _folds(labels, 10, seed=0)
    sizes = sorted(len(f) for f in folds)
    assert set(sizes) <= {423, 424}
    assert sum(sizes) == 4237
    all_indices = np.concatenate(folds)
    assert sorted(all_indices.tolist()) == list(range(4237))


def test_leave_one_out_boundary():
    rng = np.random.default_rng(1)
    x, labels = _labeled_rows(rng, n=10)
    result = _cv(x, labels, k=10, seed=3)
    assert len(result.folds) == 10
    folds = _folds(labels, 10, seed=3)
    assert sorted(np.concatenate(folds).tolist()) == list(range(10))
    assert all(f.size == 1 for f in folds)
    assert all(f.accuracy in (0.0, 1.0) for f in result.folds)  # one row each


def test_k_of_one_rejected():
    rng = np.random.default_rng(2)
    with pytest.raises(DomainError):
        _cv(*_labeled_rows(rng), k=1)


def test_k_exceeding_n_rejected():
    rng = np.random.default_rng(3)
    with pytest.raises(DomainError):
        _cv(*_labeled_rows(rng, n=6), k=7)


def test_labels_of_another_length_rejected():
    x, labels = _labeled_rows(np.random.default_rng(9), n=10)
    for wrong in (labels[:-1], np.append(labels, 1.0)):
        with pytest.raises(DomainError, match="one label per row"):
            _cv(x, wrong, k=2)


def test_single_class_labels_rejected():
    # every fold's training side is single-class, so no fold is scored
    with pytest.raises(DegenerateLabelsError):
        _cv(np.zeros((8, 1)), np.full(8, -1.0), k=2)


def test_cv_is_seed_deterministic():
    rng = np.random.default_rng(4)
    x, labels = _labeled_rows(rng)
    a = _cv(x, labels, k=5, seed=11)
    b = _cv(x, labels, k=5, seed=11)
    assert a.mean_accuracy == b.mean_accuracy
    assert [f.accuracy for f in a.folds] == [f.accuracy for f in b.folds]


def test_cv_separable_data_scores_high():
    rng = np.random.default_rng(5)
    result = _cv(*_labeled_rows(rng, n=60), k=6, seed=2)
    assert result.mean_accuracy >= 0.95
    assert result.n_skipped == 0


def test_stratified_folds_keep_minority_presence():
    labels = np.array([1.0] * 10 + [-1.0] * 40)
    folds = _folds(labels, 5, seed=1)
    for fold in folds:
        assert (labels[fold] > 0).sum() == 2  # 10 positives dealt evenly


def test_single_class_folds_are_skipped():
    x = np.vstack([np.zeros((9, 2)), np.ones((1, 2))])
    labels = np.array([-1.0] * 9 + [1.0])
    # leave-one-out: removing the single positive leaves one-class training
    result = _cv(x, labels, k=10, seed=0)
    skipped = [f for f in result.folds if f.accuracy is None]
    assert len(skipped) == 1
    assert skipped[0].converged is None
    assert result.n_skipped == 1 and result.n_trained == 9


def test_select_c_prefers_smaller_on_tie():
    rng = np.random.default_rng(7)
    x, labels = _labeled_rows(rng, n=40)  # separable: every C reaches 100%
    selection = select_c(x, labels, LINEAR, (0.5, 5.0, 50.0), k=4,
                         base_config=TrainConfig(balance_classes=False))
    accs = {c: r.mean_accuracy for c, r in selection.results.items()}
    if len(set(accs.values())) == 1:
        assert selection.best_c == 0.5
    best = max(accs.values())
    assert accs[selection.best_c] == best


def test_select_c_skips_c_whose_folds_did_not_converge(monkeypatch):
    # the sigmoid kernel is indefinite on these rows, so SMO trains it,
    # and one pass leaves some of the large-C fits short of the optimum
    solver_limits(monkeypatch, max_passes=1)
    rng = np.random.default_rng(1)
    x, labels = separable_blobs(rng, n_per_class=20, gap=1.0)
    x = 0.5 * x
    sigmoid = KernelSpec(variant="sigmoid", theta=0.0)
    config = TrainConfig(balance_classes=False)
    selection = select_c(x, labels, sigmoid, (0.01, 100.0), k=4, base_config=config)
    early, settled = selection.results[100.0], selection.results[0.01]
    assert early.n_converged < early.n_trained
    assert settled.n_converged == settled.n_trained == 4
    assert early.mean_accuracy > settled.mean_accuracy
    assert selection.best_c == 0.01
    with pytest.raises(NumericalError):
        select_c(x, labels, sigmoid, (100.0,), k=4, base_config=config)


# select_c's fits in this process (1) and in two forked workers (2)
WORKER_COUNTS = (1, 2)


def _assert_no_child_left():
    """This process has no child process, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def set_workers(monkeypatch):
    """Pin select_c's worker count, and check that no worker outlives
    the test."""
    def pin(count):
        monkeypatch.setattr(crossval, "_available_cpus", lambda: count)
    yield pin
    _assert_no_child_left()


def _non_converging_case(monkeypatch):
    solver_limits(monkeypatch, max_passes=1)
    rng = np.random.default_rng(1)
    x, labels = separable_blobs(rng, n_per_class=20, gap=1.0)
    return (0.5 * x, labels, KernelSpec(variant="sigmoid", theta=0.0), (0.01, 100.0), 4,
            TrainConfig(balance_classes=False))


def _single_class_fold_case(monkeypatch):
    x = np.vstack([np.zeros((9, 2)), np.ones((1, 2))])
    labels = np.array([-1.0] * 9 + [1.0])
    return x, labels, LINEAR, (0.5, 5.0), 10, CONFIG


def _linear_case(monkeypatch):
    x, labels = _labeled_rows(np.random.default_rng(8), n=60, signal=False)
    return x, labels, LINEAR, (0.1, 1.0, 10.0, 100.0), 5, TrainConfig(balance_classes=False)


@pytest.mark.parametrize("case", [_linear_case, _non_converging_case, _single_class_fold_case],
                         ids=["linear", "non-converging", "single-class-fold"])
def test_select_c_is_the_same_at_every_worker_count(set_workers, monkeypatch, case):
    x, labels, kernel, grid, k, config = case(monkeypatch)
    selections = []
    for count in WORKER_COUNTS:
        set_workers(count)
        selections.append(repr(select_c(x, labels, kernel, grid, k=k, base_config=config)))
        _assert_no_child_left()
    assert selections[0] == selections[1]


def _train(tmp_path, monkeypatch, capsys, out):
    monkeypatch.chdir(tmp_path)  # relative paths keep config.txt the same
    if not Path("synth/cohort.tsv").exists():
        assert main(["synth", "--n", "200", "--seed", "5", "--out-dir", "synth"]) == 0
    capsys.readouterr()
    code = main(["train", "--input", "synth/cohort.tsv", "--out-dir", out, "--seed", "5"])
    return code, capsys.readouterr().err


def test_train_artifacts_are_the_same_at_every_worker_count(tmp_path, monkeypatch, capsys,
                                                             set_workers):
    runs = []
    for count in WORKER_COUNTS:
        set_workers(count)
        assert _train(tmp_path, monkeypatch, capsys, f"run{count}") == (0, "")
        _assert_no_child_left()
        runs.append({name: (tmp_path / f"run{count}" / name).read_bytes()
                     for name in ("train_report.txt", "model.txt", "plan.txt", "test.tsv")})
    assert runs[0] == runs[1]
    assert b"cv_folds 10\nc 0.1 " in runs[0]["train_report.txt"]  # the default grid ran


def test_fit_error_in_a_worker_matches_the_in_process_error(tmp_path, monkeypatch, capsys,
                                                            set_workers):
    real_train = crossval.train

    def failing_train(x, labels, kernel, config, factor=None):
        if config.c_regularization == 10.0:  # the sum tells the folds apart
            raise NumericalError(f"forced failure at C=10 on rows summing to {x.sum()!r}")
        return real_train(x, labels, kernel, config, factor)

    monkeypatch.setattr(crossval, "train", failing_train)
    outcomes = []
    for count in WORKER_COUNTS:
        set_workers(count)
        outcomes.append(_train(tmp_path, monkeypatch, capsys, f"run{count}"))
        _assert_no_child_left()
    assert outcomes[0] == outcomes[1]
    code, err = outcomes[0]
    assert code == 3 and "numerical error: forced failure at C=10 on" in err


def test_worker_that_ends_without_its_results_fails_train(tmp_path, monkeypatch, capsys,
                                                         set_workers):
    parent = os.getpid()
    real_train = crossval.train

    def dying_train(*args):
        if os.getpid() != parent:
            os._exit(1)
        return real_train(*args)

    monkeypatch.setattr(crossval, "train", dying_train)
    set_workers(2)
    code, err = _train(tmp_path, monkeypatch, capsys, "run")
    assert code == 3
    assert err == ("dosegate train: numerical error: "
                   "a cross-validation worker ended without its results\n")
    _assert_no_child_left()


def _train_failing_in_this_process(failure, worker_delay):
    """A train that raises ``failure`` in this process, and in a forked
    worker sleeps ``worker_delay`` seconds before its first fit."""
    parent = os.getpid()
    real_train = crossval.train
    slept = []

    def train(*args):
        if os.getpid() == parent:
            raise failure
        if not slept:
            time.sleep(worker_delay)
            slept.append(worker_delay)
        return real_train(*args)
    return train


def test_failure_in_this_process_waits_for_the_running_worker(monkeypatch, set_workers):
    monkeypatch.setattr(crossval, "train", _train_failing_in_this_process(
        NumericalError("forced failure in this process's share"), 0.3))
    set_workers(2)
    x, labels, kernel, grid, k, config = _linear_case(monkeypatch)
    with pytest.raises(NumericalError, match="this process's share"):
        select_c(x, labels, kernel, grid, k=k, base_config=config)
    _assert_no_child_left()


def test_interrupt_in_this_process_kills_the_running_worker(monkeypatch, set_workers):
    monkeypatch.setattr(crossval, "train", _train_failing_in_this_process(
        KeyboardInterrupt(), 60.0))
    set_workers(2)
    x, labels, kernel, grid, k, config = _linear_case(monkeypatch)
    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        select_c(x, labels, kernel, grid, k=k, base_config=config)
    assert time.monotonic() - started < 30.0  # the worker was not waited for
    _assert_no_child_left()


@pytest.mark.parametrize("blas_env, expected", [
    ({}, 1),  # OpenBLAS's default: a thread per CPU
    ({"OPENBLAS_NUM_THREADS": "1"}, 4),
    ({"OMP_NUM_THREADS": "2"}, 2),
    ({"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": "1"}, 1),
    ({"GOTO_NUM_THREADS": "1"}, 4),
    ({"OPENBLAS_NUM_THREADS": "8"}, 1),
    ({"OMP_NUM_THREADS": "1,1"}, 1),  # a nested setting is not read
])
def test_workers_share_the_cpus_with_the_blas_threads(monkeypatch, blas_env, expected):
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    for name, value in blas_env.items():
        monkeypatch.setenv(name, value)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert crossval._available_cpus() == expected


# select_c forks a worker here, and must not import a pool to do so
TRAIN_AT_TWO_WORKERS = """
import contextlib, io
from dosegate import crossval
crossval._available_cpus = lambda: 2
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (["synth", "--n", "200", "--seed", "5", "--out-dir", "s"],
                 ["train", "--input", "s/cohort.tsv", "--out-dir", "r", "--seed", "5"]):
        if dosegate.cli.main(argv) != 0:
            sys.exit(f"{argv[0]} failed")
"""


def test_importing_the_cli_loads_no_pool_machinery(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    for run in ("", TRAIN_AT_TWO_WORKERS):
        probe = (f"import sys, dosegate.cli\n{run}\n"
                 "print(sorted(m for m in ('concurrent.futures', 'multiprocessing') "
                 "if m in sys.modules))")
        done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                              cwd=tmp_path, env=env)
        assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", ""), run
