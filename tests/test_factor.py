"""The kernel factor that the interior point solves on: built once per
fit_gate, valid on the rows of every cross-validation fold, and named in
train_report.txt; and the triangular inverse the interior point applies
in its Newton systems."""

import numpy as np
import pytest
from scipy.linalg import solve_triangular

from dosegate import crossval, gate, svm
from dosegate.cli import main
from dosegate.cohort import split_cohort
from dosegate.gate import fit_gate
from dosegate.kernels import KernelSpec, kernel_matrix
from dosegate.svm import (
    INVERSE_LEAF_ROWS,
    LOW_RANK_CAP,
    PIVOT_TOLERANCE,
    _lower_inverse,
    pivoted_cholesky,
)
from dosegate.synth import generate_synthetic_cohort

POLYNOMIAL = KernelSpec(variant="polynomial", degree=2, offset=1.0)
LINEAR = KernelSpec(variant="linear")
ANOVA = KernelSpec(variant="anova", sigma=1.0, d=1.0)
SIGMOID = KernelSpec(variant="sigmoid", theta=0.0)


@pytest.mark.parametrize("kernel, factorizations", [
    (POLYNOMIAL, 1),
    (LINEAR, 1),
    (ANOVA, 1),
    (SIGMOID, 1 + 3 * 4),  # no factor of all rows, so each fold factors its own
], ids=["polynomial", "linear", "anova", "sigmoid"])
def test_fit_gate_factors_the_training_rows_once(monkeypatch, kernel, factorizations):
    real = svm.pivoted_cholesky
    calls, depth = [], [0]

    def counting(spec, x):
        # the probe on the first rows is a recursive call, not a factorization
        if depth[0] == 0:
            calls.append(x.shape[0])
        depth[0] += 1
        try:
            return real(spec, x)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(svm, "pivoted_cholesky", counting)
    monkeypatch.setattr(gate, "pivoted_cholesky", counting)
    monkeypatch.setattr(crossval, "_available_cpus", lambda: 1)  # count every fit here
    train_rows, _ = split_cohort(generate_synthetic_cohort(600, 11), 0.5, 11)
    fit_gate(train_rows, kernel, cv_k=3)
    assert len(calls) == factorizations
    assert calls[0] == len(train_rows)


def _rows_with_duplicates(rng, n=260, dims=8):
    """Standardized-looking rows: half the columns take a few values, the
    others are continuous, and about a third of the rows repeat others."""
    discrete = rng.integers(0, 3, size=(n, dims // 2)).astype(float)
    continuous = rng.normal(size=(n, dims - dims // 2))
    x = np.hstack([discrete, continuous])
    repeats = rng.choice(n, size=n // 3, replace=False)
    x[repeats] = x[rng.integers(0, n, size=repeats.size)]
    return x


@pytest.mark.parametrize("kernel", [POLYNOMIAL, LINEAR, ANOVA],
                         ids=["polynomial", "linear", "anova"])
@pytest.mark.parametrize("seed", range(4))
def test_rows_of_the_factor_factor_the_rows_kernel(kernel, seed):
    rng = np.random.default_rng(seed)
    x = _rows_with_duplicates(rng)
    factor, indefinite = pivoted_cholesky(kernel, x)
    assert factor is not None and not indefinite
    diagonal = np.diagonal(kernel_matrix(kernel, x, x))
    floor = PIVOT_TOLERANCE * float(np.abs(diagonal).max())
    # what summing rank squares of kernel-sized values may leave beyond it
    rounding = 8 * factor.shape[1] * np.finfo(float).eps * float(np.abs(diagonal).max())
    for _ in range(5):
        rows = rng.random(x.shape[0]) < rng.uniform(0.5, 0.9)
        v = factor[rows]
        residual = kernel_matrix(kernel, x[rows], x[rows]) - v @ v.T
        assert np.all(np.abs(np.diagonal(residual)) <= floor + rounding)
        # a positive semidefinite residual has no entry above its diagonal's
        assert np.all(np.abs(residual) <= floor + rounding)


def _woodbury_factor(rng, rank, rows, spread):
    """The Cholesky factor of I + W^T D^-1 W, the interior point's matrix,
    with the d spanning ``spread`` decades below 1."""
    w = rng.normal(size=(rows, rank))
    d = 10.0 ** -rng.uniform(0.0, spread, size=rows)
    return np.linalg.cholesky(np.eye(rank) + w.T @ (w / d[:, None]))


def _residual(inverse, lower):
    return float(np.abs(inverse @ lower - np.eye(lower.shape[0])).max())


@pytest.mark.parametrize("rank", [1, 2, 31, 32, 33, 64, 109, 150])
@pytest.mark.parametrize("rows, spread", [(2000, 0.0), (2000, 10.0), (None, 10.0)],
                         ids=["well-conditioned", "tiny-d", "ill-conditioned"])
def test_lower_inverse_matches_a_triangular_solve(rank, rows, spread):
    rng = np.random.default_rng(rank)
    # as many rows as the rank leaves M's conditioning to the spread of d
    lower = _woodbury_factor(rng, rank, rows or rank, spread)
    inverse = _lower_inverse(lower)
    want = solve_triangular(lower, np.eye(rank), lower=True)
    # the upper triangle included: np.linalg.inv's pivoting may leave
    # rounding-sized entries there, which the solve does not
    assert np.abs(inverse - want).max() <= 1e-12 * np.abs(want).max()
    # no less accurate than the general inverse it replaces
    floor = rank * np.finfo(float).eps
    assert _residual(inverse, lower) <= 4 * max(_residual(np.linalg.inv(lower), lower), floor)
    if rank <= INVERSE_LEAF_ROWS:
        assert inverse.tobytes() == np.linalg.inv(lower).tobytes()


@pytest.mark.parametrize("kernel, line", [
    ("polynomial degree=2 offset=1", "factor rank "),
    ("rbf delta=1", "factor none (rank above 200)"),
    ("sigmoid theta=0", "factor none (indefinite)"),
], ids=["polynomial", "rbf", "sigmoid"])
def test_train_report_says_what_the_fits_solved_on(tmp_path, capsys, kernel, line):
    assert main(["synth", "--n", "600", "--seed", "2", "--out-dir", str(tmp_path / "s")]) == 0
    assert main(["train", "--input", str(tmp_path / "s" / "cohort.tsv"), "--out-dir",
                 str(tmp_path / "run"), "--seed", "2", "--c-grid", "0.1",
                 "--kernel", kernel]) == 0
    capsys.readouterr()
    report = (tmp_path / "run" / "train_report.txt").read_text().splitlines()
    selected = next(i for i, text in enumerate(report) if text.startswith("selected_c "))
    assert report[selected + 1].startswith(line)
    if line == "factor rank ":
        assert 0 < int(report[selected + 1].split()[2]) <= LOW_RANK_CAP
