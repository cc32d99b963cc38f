"""The kernel factor that the interior point solves on: built once per
fit_gate, valid on the rows of every cross-validation fold, and named in
train_report.txt."""

import numpy as np
import pytest
from helpers import mixed_rows
from reference_factor import reference_cholesky

from dosegate import crossval, gate, svm
from dosegate.cli import main
from dosegate.cohort import split_cohort
from dosegate.errors import DomainError
from dosegate.gate import fit_gate
from dosegate.kernels import KernelSpec, kernel_matrix
from dosegate.svm import LOW_RANK_CAP, PIVOT_TOLERANCE, pivoted_cholesky
from dosegate.synth import generate_synthetic_cohort

POLYNOMIAL = KernelSpec(variant="polynomial", degree=2, offset=1.0)
LINEAR = KernelSpec(variant="linear")
ANOVA = KernelSpec(variant="anova", sigma=1.0, d=1.0)
SIGMOID = KernelSpec(variant="sigmoid", theta=0.0)
RBF = KernelSpec(variant="rbf", delta=1.0)


@pytest.mark.parametrize("kernel", [POLYNOMIAL, LINEAR, ANOVA, SIGMOID, RBF],
                         ids=["polynomial", "linear", "anova", "sigmoid", "rbf"])
def test_fit_gate_factors_the_training_rows_once(monkeypatch, kernel):
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
    # sigmoid and RBF give no factor of all rows, and no fold factors its own
    assert calls == [len(train_rows)]


def test_folds_of_a_kernel_without_a_factor_go_to_smo_as_the_final_fit(monkeypatch):
    # 280 training rows: RBF is of rank above the cap on them, and of rank
    # within it on each fold's training side of at most 187 rows
    calls = []

    def counting(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)
        return wrapper

    monkeypatch.setattr(svm, "_smo", counting("smo", svm._smo))
    monkeypatch.setattr(svm, "_interior_point", counting("interior", svm._interior_point))
    monkeypatch.setattr(crossval, "_available_cpus", lambda: 1)  # count every fit here
    train_rows, _ = split_cohort(generate_synthetic_cohort(560, 3), 0.5, 3)
    assert len(train_rows) * 2 // 3 + 1 <= LOW_RANK_CAP < len(train_rows)
    fitted = fit_gate(train_rows, RBF, cv_k=3)
    assert fitted.factor[0] is None and not fitted.factor[1]
    assert calls == ["smo"] * (len(crossval.DEFAULT_C_GRID) * 3 + 1)


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


@pytest.mark.parametrize("kernel", [
    KernelSpec(variant="anova", sigma=1.0, d=1),
    KernelSpec(variant="anova", sigma=0.5, d=2),
    KernelSpec(variant="anova", sigma=2.0, d=1, n_dims=4),
    KernelSpec(variant="anova", sigma=0.1, d=2, n_dims=1),
], ids=KernelSpec.to_text)
@pytest.mark.parametrize("rows", [150, 400])  # 400 rows take the probe first
def test_anova_factor_equals_the_one_column_reference_bit_for_bit(kernel, rows):
    # at 400 rows the continuous column and the one of one value more than
    # a table holds have no table; at 150 every column but the continuous
    # one has
    x = mixed_rows(rows, seed=rows)
    factor, indefinite = pivoted_cholesky(kernel, x)
    want, want_indefinite = reference_cholesky(kernel, x)
    assert factor is not None and want is not None and not indefinite and not want_indefinite
    assert np.array_equal(factor.view(np.int64), want.view(np.int64))


def _repeated_rows(rng, distinct=150, n=400, dims=6):
    x = rng.normal(size=(distinct, dims))
    return x[rng.integers(0, distinct, size=n)]


@pytest.mark.parametrize("kernel, rows, verdict", [
    (KernelSpec(variant="rbf", delta=1.0), lambda rng: rng.normal(size=(400, 6)), "rank"),
    (KernelSpec(variant="rbf", delta=1.0), _repeated_rows, "factor"),  # rank under 200
    (SIGMOID, lambda rng: rng.normal(size=(400, 6)), "indefinite"),
    (POLYNOMIAL, lambda rng: rng.normal(size=(400, 6)), "factor"),
    (LINEAR, lambda rng: rng.normal(size=(400, 6)), "factor"),
    (ANOVA, lambda rng: mixed_rows(400, seed=9), "factor"),
], ids=["rbf-distinct", "rbf-repeated", "sigmoid", "polynomial", "linear", "anova"])
def test_probe_from_one_matrix_gives_the_reference_verdict(kernel, rows, verdict):
    x = rows(np.random.default_rng(5))
    factor, indefinite = pivoted_cholesky(kernel, x)
    want, want_indefinite = reference_cholesky(kernel, x)
    expected = {"rank": (True, False), "indefinite": (True, True), "factor": (False, False)}
    assert (factor is None, indefinite) == (want is None, want_indefinite) == expected[verdict]
    if factor is not None:
        assert np.array_equal(factor, want)


@pytest.mark.parametrize("rows", [150, 400])
def test_anova_dimensions_past_the_input_width_are_a_domain_error(rows):
    x = mixed_rows(rows, seed=1)
    with pytest.raises(DomainError, match="n_dims"):
        pivoted_cholesky(KernelSpec(variant="anova", n_dims=x.shape[1] + 1), x)
