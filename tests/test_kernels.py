"""Kernel formulas, Gram assembly, and spec validation."""

import math
import tracemalloc

import numpy as np
import pytest

from dosegate import kernels
from dosegate.cli import main
from dosegate.cohort import apply_imputation, fit_imputation, read_cohort, split_cohort
from dosegate.errors import DomainError
from dosegate.features import default_feature_names, encode_features
from dosegate.kernels import (
    ANOVA_BLOCK_CELLS,
    VARIANTS,
    KernelSpec,
    kernel_matrix,
)


def _random_spec(rng, variant, n_dims):
    if variant == "linear":
        return KernelSpec(variant="linear")
    if variant == "polynomial":
        return KernelSpec(variant="polynomial",
                          degree=int(rng.integers(1, 4)),
                          offset=float(rng.uniform(0.0, 2.0)))
    if variant == "sigmoid":
        return KernelSpec(variant="sigmoid", theta=float(rng.uniform(-1.0, 1.0)))
    if variant == "rbf":
        return KernelSpec(variant="rbf", delta=float(rng.uniform(0.3, 3.0)))
    return KernelSpec(variant="anova", sigma=float(rng.uniform(0.2, 2.0)),
                      d=int(rng.integers(1, 4)), n_dims=n_dims)


def _scalar_oracle(spec, x, y):
    # independent scalar recomputation via math, no numpy
    dot = sum(a * b for a, b in zip(x, y))
    if spec.variant == "linear":
        return dot
    if spec.variant == "polynomial":
        return (dot + spec.offset) ** spec.degree
    if spec.variant == "sigmoid":
        return math.tanh(dot + spec.theta)
    if spec.variant == "rbf":
        sq = sum((a - b) ** 2 for a, b in zip(x, y))
        return math.exp(-sq / (2.0 * spec.delta * spec.delta))
    return sum(math.exp(-spec.sigma * (a - b) ** 2) ** spec.d
               for a, b in zip(x, y))


def test_polynomial_example():
    spec = KernelSpec(variant="polynomial", degree=2, offset=1.0)
    assert kernel_matrix(spec, [1.0, 0.0], [1.0, 1.0])[0, 0] == 4.0


def test_rbf_zero_distance():
    spec = KernelSpec(variant="rbf", delta=0.37)
    assert kernel_matrix(spec, [1.0, 2.0, 3.0], [1.0, 2.0, 3.0])[0, 0] == 1.0


def test_polynomial_offset_only():
    spec = KernelSpec(variant="polynomial", degree=2, offset=1.0)
    assert kernel_matrix(spec, [0.0, 0.0], [0.0, 0.0])[0, 0] == 1.0


def test_default_spec_is_squared_inner_product_plus_one():
    spec = KernelSpec()
    rng = np.random.default_rng(5)
    for _ in range(50):
        x, y = rng.normal(size=3), rng.normal(size=3)
        expected = (float(x @ y) + 1.0) ** 2
        assert kernel_matrix(spec, x, y)[0, 0] == pytest.approx(expected, rel=1e-14)


def test_all_variants_match_scalar_oracle():
    rng = np.random.default_rng(42)
    for trial in range(200):
        dims = int(rng.integers(1, 6))
        variant = VARIANTS[trial % len(VARIANTS)]
        spec = _random_spec(rng, variant, dims)
        x = rng.normal(size=dims)
        y = rng.normal(size=dims)
        got = kernel_matrix(spec, x, y)[0, 0]
        assert got == pytest.approx(_scalar_oracle(spec, x, y), abs=1e-12)


def test_symmetry_all_variants():
    rng = np.random.default_rng(7)
    for trial in range(250):
        dims = int(rng.integers(1, 7))
        spec = _random_spec(rng, VARIANTS[trial % len(VARIANTS)], dims)
        x, y = rng.normal(size=dims), rng.normal(size=dims)
        assert abs(kernel_matrix(spec, x, y)[0, 0] - kernel_matrix(spec, y, x)[0, 0]) <= 1e-12


def test_gram_single_row_rbf():
    x = np.array([[3.0, -1.0]])
    g = kernel_matrix(KernelSpec(variant="rbf", delta=1.0), x, x)
    assert g.shape == (1, 1) and g[0, 0] == 1.0


def test_gram_duplicate_rows_constant():
    rng = np.random.default_rng(3)
    row = rng.normal(size=4)
    rows = np.vstack([row, row, row])
    for variant in VARIANTS:
        spec = _random_spec(rng, variant, 4)
        g = kernel_matrix(spec, rows, rows)
        assert np.all(g == g[0, 0])


def test_gram_psd_polynomial_example():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(10, 3))
    g = kernel_matrix(KernelSpec(), x, x)
    # independent eigenvalue routine as the oracle
    assert np.linalg.eigvalsh(g).min() >= -1e-9


def test_gram_exactly_symmetric():
    rng = np.random.default_rng(19)
    for variant in VARIANTS:
        spec = _random_spec(rng, variant, 5)
        x = rng.normal(size=(12, 5))
        g = kernel_matrix(spec, x, x)
        assert np.array_equal(g, g.T)


def test_kernel_matrix_agrees_with_single_pair_evaluation():
    rng = np.random.default_rng(23)
    a = rng.normal(size=(6, 3))
    b = rng.normal(size=(4, 3))
    for variant in VARIANTS:
        spec = _random_spec(rng, variant, 3)
        m = kernel_matrix(spec, a, b)
        assert m.shape == (6, 4)
        for i in range(6):
            for j in range(4):
                assert m[i, j] == pytest.approx(kernel_matrix(spec, a[i], b[j])[0, 0],
                                                abs=1e-12)


def test_dimension_mismatch_rejected():
    with pytest.raises(DomainError):
        kernel_matrix(KernelSpec(), [1.0, 2.0], [1.0, 2.0, 3.0])


@pytest.mark.parametrize("kwargs", [
    {"variant": "rbf", "delta": 0.0},
    {"variant": "rbf", "delta": -1.0},
    {"variant": "polynomial", "degree": 0},
    {"variant": "anova", "sigma": 0.0, "n_dims": 2},
    {"variant": "anova", "sigma": 1.0, "d": 0, "n_dims": 2},
    {"variant": "mystery"},
    {"variant": "anova", "n_dims": 0},
    {"variant": "anova", "n_dims": -1},
    {"variant": "polynomial", "offset": math.nan},
    {"variant": "polynomial", "offset": math.inf},
    {"variant": "sigmoid", "theta": math.nan},
    {"variant": "rbf", "delta": math.inf},
    {"variant": "anova", "sigma": math.inf},
    {"variant": "polynomial", "degree": 2.5},
    {"variant": "polynomial", "degree": True},
    {"variant": "anova", "d": True},
])
def test_invalid_specs_rejected(kwargs):
    with pytest.raises(DomainError):
        KernelSpec(**kwargs)


def test_spec_text_round_trip():
    rng = np.random.default_rng(31)
    for variant in VARIANTS:
        spec = _random_spec(rng, variant, 4)
        assert KernelSpec.from_text(spec.to_text()) == spec


def test_spec_text_rejects_garbage():
    for text in ("", "rbf delta=nope", "polynomial degree=-2", "warp factor=9",
                 "polynomial offset=nan", "polynomial offset=inf", "sigmoid theta=nan",
                 "anova sigma=inf", "rbf delta=inf", "polynomial degree=2 degree=3",
                 "rbf sigma=0.5", "linear degree=2", "polynomial theta=0", "anova delta=1"):
        with pytest.raises(DomainError):
            KernelSpec.from_text(text)


# --- in-place evaluation against the out-of-place formulas ---

def _formula(spec, a, b):
    # each kernel's formula as one out-of-place expression, temporaries and all
    if spec.variant == "linear":
        return a @ b.T
    if spec.variant == "polynomial":
        return (a @ b.T + spec.offset) ** spec.degree
    if spec.variant == "sigmoid":
        return np.tanh(a @ b.T + spec.theta)
    if spec.variant == "rbf":
        sq = (np.sum(a * a, axis=1)[:, None] + np.sum(b * b, axis=1)[None, :]
              - 2.0 * (a @ b.T))
        np.maximum(sq, 0.0, out=sq)
        if a is b:
            np.fill_diagonal(sq, 0.0)
        return np.exp(-sq / (2.0 * spec.delta**2))
    dims = a.shape[1] if spec.n_dims is None else spec.n_dims
    out = np.zeros((a.shape[0], b.shape[0]))
    for k in range(dims):
        diff = a[:, k][:, None] - b[None, :, k]
        out += np.exp(-spec.sigma * diff * diff) ** spec.d
    return out


BIT_SPECS = [
    KernelSpec(variant="linear"),
    KernelSpec(variant="polynomial", degree=2, offset=1.0),
    KernelSpec(variant="polynomial", degree=3, offset=0.3),
    KernelSpec(variant="sigmoid", theta=-0.4),
    KernelSpec(variant="rbf", delta=0.7),
    KernelSpec(variant="anova", sigma=1.0, d=1),
    KernelSpec(variant="anova", sigma=0.6, d=2),
    KernelSpec(variant="anova", sigma=1.3, d=3),
    KernelSpec(variant="anova", sigma=0.8, d=2, n_dims=2),
]
WIDE = 300  # rows of b; an anova or rbf block then holds ANOVA_BLOCK_CELLS // WIDE rows
STEP = ANOVA_BLOCK_CELLS // WIDE


def _pair(shape_a, shape_b, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=shape_a), rng.normal(size=shape_b)


@pytest.mark.parametrize("spec", BIT_SPECS, ids=KernelSpec.to_text)
@pytest.mark.parametrize("shapes", [
    ((1, 4), (WIDE, 4)),  # one row
    ((WIDE, 4), (1, 4)),
    ((50, 3), (40, 3)),
    ((STEP - 1, 3), (WIDE, 3)),  # around the anova and rbf block size
    ((STEP, 3), (WIDE, 3)),
    ((STEP + 1, 3), (WIDE, 3)),
    ((3, 2), (ANOVA_BLOCK_CELLS + 5, 2)),  # a block holds one row
    ((0, 3), (7, 3)),  # empty
    ((7, 3), (0, 3)),
], ids=lambda s: f"{s[0][0]}x{s[1][0]}x{s[0][1]}")
def test_kernel_matrix_is_bit_identical_to_formula(spec, shapes):
    a, b = _pair(*shapes)
    got = kernel_matrix(spec, a, b)
    want = _formula(spec, a, b)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("spec, shape", [
    (spec, shape) for spec in BIT_SPECS for shape in ((STEP + 1, 3), (60, 1), (1, 3), (1025, 3))
    if (spec.n_dims or 0) <= shape[1]
], ids=lambda v: v.to_text() if isinstance(v, KernelSpec) else f"{v[0]}x{v[1]}")
def test_kernel_matrix_of_sample_with_itself_is_bit_identical(spec, shape):
    x = np.random.default_rng(1).normal(size=shape)
    got = kernel_matrix(spec, x, x)
    want = _formula(spec, x, x)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_rbf_matrix_holds_no_second_full_size_array():
    x = np.random.default_rng(2).normal(size=(1000, 14))
    tracemalloc.start()
    try:
        result = kernel_matrix(KernelSpec(variant="rbf"), x, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * result.nbytes


# --- per-value term tables for anova dimensions with few distinct values ---

def _coded_rows(rows, seed):
    # columns: a z-scored 0/1 flag, a continuous one, 9 z-scored decade
    # codes, 0.0 mixed with -0.0 and 0.7, a 0/1 flag; so the first two
    # dimensions (n_dims=2) put a tabled one before a direct one. Each
    # code cycles, so that a column of r rows takes min(r, codes) values.
    rng = np.random.default_rng(seed)

    def codes(values):
        return rng.permutation(np.resize(np.array(values), rows))

    return np.column_stack([codes([-0.8123, 1.2311]), rng.normal(size=rows),
                            codes((np.arange(1.0, 10.0) - 5.37) / 1.83),
                            codes([0.0, -0.0, 0.7]), codes([0.0, 1.0])])


ANOVA_BIT_SPECS = [spec for spec in BIT_SPECS if spec.variant == "anova"]
CODED_DIMS = 5


@pytest.mark.parametrize("spec", ANOVA_BIT_SPECS, ids=KernelSpec.to_text)
@pytest.mark.parametrize("m, n, tabled", [
    # each shape with the dimensions it tables, by the three conditions:
    # m * n reaches a block, at most a block's rows of values, at most m / 2
    (18, ANOVA_BLOCK_CELLS // 18 + 1, (0, 2, 3, 4)),
    (18, ANOVA_BLOCK_CELLS // 18, ()),  # one cell short of a block
    (17, ANOVA_BLOCK_CELLS // 17 + 1, (0, 3, 4)),  # 9 values > 17 // 2
    (20, ANOVA_BLOCK_CELLS // 9, (0, 2, 3, 4)),  # a block holds 9 rows
    (20, ANOVA_BLOCK_CELLS // 9 + 1, (0, 3, 4)),  # a block holds 8 rows
    (2, ANOVA_BLOCK_CELLS, ()),  # a block holds 1 row, m // 2 is 1
    (4, ANOVA_BLOCK_CELLS // 2, (0, 4)),  # a block holds 2 rows
    (STEP * 3 + 5, WIDE, (0, 2, 3, 4)),  # four row blocks, the last short
], ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else str(v))
def test_tabled_anova_is_bit_identical_to_formula(monkeypatch, spec, m, n, tabled):
    built = []

    def recording_table(spec, column, b_column, limit):
        table = original(spec, column, b_column, limit)
        built.append(table is not None)
        return table

    original = kernels._anova_table
    monkeypatch.setattr(kernels, "_anova_table", recording_table)
    a, b = _coded_rows(m, seed=m), _coded_rows(n, seed=n + 1)
    got = kernel_matrix(spec, a, b)
    want = _formula(spec, a, b)
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    dims = spec.n_dims or CODED_DIMS
    assert [k for k, is_tabled in enumerate(built) if is_tabled] == [k for k in tabled if k < dims]
    assert len(built) in (0, dims)


@pytest.mark.parametrize("spec", ANOVA_BIT_SPECS, ids=KernelSpec.to_text)
def test_tabled_anova_of_sample_with_itself_is_bit_identical(spec):
    x = _coded_rows(600, seed=3)
    got = kernel_matrix(spec, x, x)
    assert np.array_equal(got.view(np.int64), _formula(spec, x, x).view(np.int64))
    assert np.array_equal(got, got.T)


def test_tabled_anova_holds_no_second_full_size_array():
    # every column a code (11 flags, 9 decades, 3 three-value codes), so
    # every dimension is tabled
    rng = np.random.default_rng(4)
    counts = [2] * 11 + [9] + [3] * 3
    x = np.column_stack([rng.integers(0, k, size=1000) for k in counts]).astype(float)
    tracemalloc.start()
    try:
        result = kernel_matrix(KernelSpec(variant="anova"), x, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * result.nbytes


@pytest.fixture(scope="module")
def paper_training_rows(tmp_path_factory):
    # the encoded training matrix `train` builds from `synth --n 4237`
    root = tmp_path_factory.mktemp("paper_rows")
    assert main(["synth", "--n", "4237", "--out-dir", str(root)]) == 0
    train_rows, _ = split_cohort(read_cohort(root / "cohort.tsv").cohort, 0.5, 0)
    imputed = apply_imputation(fit_imputation(train_rows), train_rows)
    return encode_features(imputed, default_feature_names(train_rows))[0]


@pytest.mark.parametrize("variant", VARIANTS)
def test_kernel_matrix_of_training_rows_is_exactly_symmetric(paper_training_rows, variant):
    # SMO reads rows of the Gram matrix in place of its columns
    x = paper_training_rows
    assert x.shape[0] == 2118
    g = kernel_matrix(KernelSpec(variant=variant), x, x)
    assert np.array_equal(g, g.T)
