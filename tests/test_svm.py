"""Trainer behavior: analytic solutions, KKT optimality, determinism."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from helpers import make_patient, mixed_rows, separable_blobs, solver_limits

from dosegate import kernels, svm
from dosegate.cohort import apply_imputation, split_cohort
from dosegate.errors import DataError, DegenerateLabelsError, DomainError, SchemaError
from dosegate.features import default_feature_names, encode_features, feature_rows
from dosegate.gate import classify_records, fit_gate
from dosegate.kernels import KernelSpec, kernel_matrix
from dosegate.svm import (
    SCORE_BLOCK_ROWS,
    SvmModel,
    TrainConfig,
    decision_values,
    score_signs,
    train,
)
from dosegate.synth import generate_synthetic_cohort

LINEAR = KernelSpec(variant="linear")
POLY21 = KernelSpec(variant="polynomial", degree=2, offset=1.0)

TWO_POINTS = np.array([[0.0, 0.0], [2.0, 2.0]])
TWO_LABELS = np.array([-1.0, 1.0])


def _score(model, x):
    return decision_values(model, x)[0]


def _predict(model, x):
    return score_signs(decision_values(model, x))[0]


HARD_MARGIN = TrainConfig(c_regularization=1e6, balance_classes=False)


@pytest.fixture
def hard_margin(monkeypatch):
    """C = 1e6 without class weights, solved to a KKT tolerance of 1e-6."""
    solver_limits(monkeypatch, kkt_tolerance=1e-6, max_passes=500)
    return HARD_MARGIN


def test_two_point_boundary(hard_margin):
    model = train(TWO_POINTS, TWO_LABELS, kernel=LINEAR, config=hard_margin)
    assert model.bias == pytest.approx(-1.0, abs=1e-6)
    assert _score(model, [2.0, 2.0]) == pytest.approx(1.0, abs=1e-6)
    assert _score(model, [0.0, 0.0]) == pytest.approx(-1.0, abs=1e-6)
    # midpoint sits on the boundary x1 + x2 = 2 and routes to +1
    assert _score(model, [1.0, 1.0]) == pytest.approx(0.0, abs=1e-6)
    assert _predict(model, [1.0, 1.0]) == 1


def test_sign_mapping(hard_margin):
    model = train(TWO_POINTS, TWO_LABELS, kernel=LINEAR, config=hard_margin)
    assert _predict(model, [3.0, 3.0]) == 1
    assert _predict(model, [0.9, 0.9]) == -1


def test_xor_with_quadratic_kernel(hard_margin):
    x = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    labels = np.array([-1.0, -1.0, 1.0, 1.0])
    model = train(x, labels, kernel=POLY21, config=hard_margin)
    for row, want in zip(x, labels):
        assert _predict(model, row) == want


def test_single_class_rejected():
    with pytest.raises(DegenerateLabelsError):
        train(TWO_POINTS, np.array([1.0, 1.0]), kernel=LINEAR)


def test_missing_labels_rejected():
    with pytest.raises(DegenerateLabelsError):
        train(TWO_POINTS, None, kernel=LINEAR)


def _kkt_violation(model, x, labels, bounds):
    """Max KKT violation recomputed from scratch (no trainer internals)."""
    k = kernel_matrix(model.kernel, x, model.support_vectors)
    scores = k @ (model.alphas * model.sv_labels) + model.bias
    worst = 0.0
    sv_index = {tuple(row): i for i, row in enumerate(model.support_vectors)}
    for i, row in enumerate(x):
        alpha = 0.0
        key = tuple(row)
        if key in sv_index:
            alpha = model.alphas[sv_index[key]]
        r = labels[i] * scores[i] - 1.0
        if alpha <= 1e-12:
            worst = max(worst, -r)
        elif alpha >= bounds[i] - 1e-12:
            worst = max(worst, r)
        else:
            worst = max(worst, abs(r))
    return worst


def test_kkt_conditions_on_random_problems(monkeypatch):
    solver_limits(monkeypatch, kkt_tolerance=1e-4, max_passes=500)
    rng = np.random.default_rng(100)
    for trial in range(25):
        n = int(rng.integers(6, 20))
        x = rng.normal(size=(n, 3))
        labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        if abs(labels.sum()) == n:
            labels[0] = -labels[0]
        c = float(rng.choice([0.5, 1.0, 10.0]))
        config = TrainConfig(c_regularization=c, balance_classes=False, seed=trial)
        model = train(x, labels, kernel=KernelSpec(variant="rbf", delta=1.0),
                      config=config)
        assert model.converged
        bounds = np.full(n, c)
        assert _kkt_violation(model, x, labels, bounds) <= 1e-4 + 1e-9
        # scaling is identity here, so the raw rows ARE the stored rows
        assert np.all(model.alphas > 0.0)
        assert np.all(model.alphas <= c)
        assert abs(model.alphas @ model.sv_labels) <= 1e-8


def test_separable_margins_at_large_c(hard_margin):
    rng = np.random.default_rng(8)
    for trial in range(10):
        x, labels = separable_blobs(rng, n_per_class=12)
        model = train(x, labels, kernel=LINEAR, config=hard_margin)
        scores = decision_values(model, x)
        assert np.all(labels * scores >= 1.0 - 1e-3)


def test_bitwise_determinism():
    rng = np.random.default_rng(55)
    x = rng.normal(size=(40, 4))
    labels = np.where(x @ np.array([1.0, -0.5, 0.2, 0.0]) > 0, 1.0, -1.0)
    config = TrainConfig(c_regularization=1.0, seed=9)
    a = train(x, labels, kernel=POLY21, config=config)
    b = train(x, labels, kernel=POLY21, config=config)
    assert np.array_equal(a.alphas, b.alphas)
    assert a.bias == b.bias
    assert np.array_equal(a.support_vectors, b.support_vectors)


def test_nonconvergence_is_flagged_not_fatal(monkeypatch):
    solver_limits(monkeypatch, kkt_tolerance=1e-9, max_passes=1)
    rng = np.random.default_rng(14)
    x = rng.normal(size=(60, 3))
    labels = np.where(rng.random(60) < 0.5, -1.0, 1.0)
    if abs(labels.sum()) == 60:
        labels[0] = -labels[0]
    config = TrainConfig(c_regularization=100.0)
    model = train(x, labels, kernel=KernelSpec(variant="rbf", delta=0.5),
                  config=config)
    assert not model.converged
    assert model.max_kkt_violation > 1e-9


def _record_candidates(monkeypatch):
    """The (iterate, solved) candidates that train's interior point
    yields, recorded as they pass."""
    real = svm._interior_point
    candidates = []

    def recording(*args):
        for iterate, solved in real(*args):
            candidates.append((np.stack(iterate), solved))
            yield iterate, solved

    monkeypatch.setattr(svm, "_interior_point", recording)
    return candidates


# the first Newton solve, the corrector of the first step, and one midway
@pytest.mark.parametrize("failing_solve", [1, 2, 9])
@pytest.mark.filterwarnings("error")
def test_non_finite_newton_step_ends_at_the_best_iterate(monkeypatch, failing_solve):
    """A Newton solve that returns NaN makes the next merit NaN, which
    ends the interior point at the best iterate before that step, as a
    budget of the steps before it would. train then finishes that iterate
    on exact kernel values: no error, and converged says whether the KKT
    conditions hold there."""
    rng = np.random.default_rng(14)
    x = rng.normal(size=(60, 3))
    labels = np.where(x[:, 0] * x[:, 1] + 0.5 * rng.normal(size=60) > 0, 1.0, -1.0)
    config = TrainConfig(c_regularization=10.0, balance_classes=False)
    real_solve = np.linalg.solve
    newton_solves = []

    def failing(a, b):
        # the Newton step solves for columns, _settle_free for one vector
        if np.ndim(b) == 2:
            newton_solves.append(b.shape)
            if len(newton_solves) == failing_solve:
                return np.full(b.shape, np.nan)
        return real_solve(a, b)

    candidates = _record_candidates(monkeypatch)
    monkeypatch.setattr(np.linalg, "solve", failing)
    model = train(x, labels, kernel=POLY21, config=config)
    monkeypatch.setattr(np.linalg, "solve", real_solve)
    # the failing step ran to its end, and no step followed it
    assert len(newton_solves) == failing_solve + failing_solve % 2
    iterate, solved = candidates[-1]
    assert np.all(np.isfinite(iterate)) and solved

    # each step makes two solves; a budget of the steps before the failing one
    candidates.clear()
    solver_limits(monkeypatch, max_passes=(failing_solve + 1) // 2)
    train(x, labels, kernel=POLY21, config=config)
    assert iterate.tobytes() == candidates[-1][0].tobytes() and not candidates[-1][1]

    violation = _kkt_violation(model, x, labels, np.full(labels.size, 10.0))
    assert model.max_kkt_violation == pytest.approx(violation, rel=1e-6, abs=1e-9)
    assert model.converged == (model.max_kkt_violation <= svm.KKT_TOLERANCE)
    assert np.isfinite(model.bias) and np.isfinite(model.dual_objective)


def test_class_weighted_box_bounds(monkeypatch):
    solver_limits(monkeypatch, max_passes=300)
    rng = np.random.default_rng(21)
    x = rng.normal(size=(30, 2))
    labels = np.array([-1.0] * 24 + [1.0] * 6)
    # balancing scales C by n / (2 n_class): 30/48 for -1, 30/12 for +1
    config = TrainConfig(c_regularization=1.0, balance_classes=True)
    model = train(x, labels, kernel=LINEAR, config=config)
    neg = model.alphas[model.sv_labels < 0]
    pos = model.alphas[model.sv_labels > 0]
    assert np.all(neg <= 0.625 + 1e-12)
    assert np.all(pos <= 2.5 + 1e-12)
    assert pos.max() > 0.625  # minority class actually uses the wider box


def test_feature_matrix_metadata_flows_into_model():
    train_rows, _ = split_cohort(generate_synthetic_cohort(200, 3), 0.5, 3)
    fitted = fit_gate(train_rows, LINEAR, c_grid=(1.0,))
    imputed = apply_imputation(fitted.plan, train_rows)
    model = fitted.model
    assert model.feature_names == default_feature_names(train_rows)
    x, means, scales = encode_features(imputed, model.feature_names)
    assert np.array_equal(model.scaler_means, means)
    assert np.array_equal(model.scaler_scales, scales)
    # decision_values takes RAW rows and must scale internally
    direct = decision_values(model, feature_rows(imputed, model.feature_names))
    via_matrix = (kernel_matrix(LINEAR, x, model.support_vectors)
                  @ (model.alphas * model.sv_labels) + model.bias)
    assert np.allclose(direct, via_matrix, atol=1e-12)


def test_train_validates_labels():
    with pytest.raises(DataError):
        train(TWO_POINTS, np.array([0.0, 2.0]), kernel=LINEAR)
    with pytest.raises(DataError):
        train(TWO_POINTS, np.array([1.0]), kernel=LINEAR)


def test_plain_array_gets_identity_scaler(hard_margin):
    model = train(TWO_POINTS, TWO_LABELS, kernel=LINEAR, config=hard_margin)
    assert model.feature_names == ("f0", "f1")
    assert np.all(model.scaler_means == 0.0)
    assert np.all(model.scaler_scales == 1.0)


def test_matrix_schema_mismatch_rejected():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(20, 2))
    labels = np.where(x[:, 0] > 0, 1.0, -1.0)
    if abs(labels.sum()) == 20:
        labels[0] = -labels[0]
    model = train(x, labels, kernel=LINEAR, config=TrainConfig())
    # a cohort has no features named like the model's; rows of another
    # width cannot be scaled by the model's scaler
    with pytest.raises(SchemaError):
        classify_records(model, make_patient())
    with pytest.raises(DomainError):
        decision_values(model, x[:, :1])


def _random_model(kernel, n_sv, d, rng):
    """A model of n_sv standard normal support vectors in d dimensions."""
    return SvmModel(
        kernel=kernel, support_vectors=rng.normal(size=(n_sv, d)),
        alphas=rng.uniform(0.1, 1.0, n_sv), sv_labels=np.where(rng.random(n_sv) < 0.5, -1.0, 1.0),
        bias=0.3, feature_names=tuple(f"f{k}" for k in range(d)), scaler_means=np.zeros(d),
        scaler_scales=np.ones(d), converged=True, max_kkt_violation=0.0, dual_objective=0.0)


# the degree-2 polynomial scores as a quadratic form, not through kernel
# rows; the test after this one covers it
@pytest.mark.parametrize("kernel", [KernelSpec(variant="polynomial", degree=3, offset=1.0),
                                    KernelSpec(variant="rbf", delta=1.5),
                                    KernelSpec(variant="sigmoid", theta=0.2)])
def test_block_scoring_equals_one_product(kernel):
    """Inputs past one block (including a one-row tail) score bit for bit
    as the single rows x support-vectors product."""
    rng = np.random.default_rng(12)
    d = 3
    model = _random_model(kernel, 8, d, rng)
    for n in (SCORE_BLOCK_ROWS + 1, 2 * SCORE_BLOCK_ROWS + 1, 2 * SCORE_BLOCK_ROWS + 3):
        rows = rng.normal(size=(n, d))
        whole = (kernel_matrix(kernel, rows, model.support_vectors)
                 @ (model.alphas * model.sv_labels) + model.bias)
        assert np.array_equal(decision_values(model, rows), whole)


@pytest.mark.parametrize("offset", [0.0, 1.0, 2.5])
@pytest.mark.parametrize("n_rows, n_vectors", [
    (1, 0), (1, 1), (1, 300), (SCORE_BLOCK_ROWS + 3, 0), (SCORE_BLOCK_ROWS + 3, 1),
    (SCORE_BLOCK_ROWS + 3, 300),
])
def test_quadratic_scores_agree_with_the_kernel_matrix_product(offset, n_rows, n_vectors):
    """The degree-2 polynomial scores as x~^T M~ x~ and agrees with the
    matrix product to 1e-12 of sum_j |c_j| (|x~| . |s~_j|)^2, the terms'
    magnitudes before the inner products cancel. That is the form's
    rounding scale: a row nearly orthogonal to its only vector has a
    kernel value near 0 where the form's terms are not."""
    kernel = KernelSpec(variant="polynomial", degree=2, offset=offset)
    seed = n_rows * 1000 + n_vectors
    rows, vectors = mixed_rows(n_rows, seed), mixed_rows(n_vectors, seed + 1)
    coef = np.random.default_rng(seed).uniform(-1.0, 1.0, n_vectors)
    k = kernel_matrix(kernel, rows, vectors)
    magnitudes = kernel_matrix(kernel, np.abs(rows), np.abs(vectors))
    got = svm._kernel_scores(kernel, rows, vectors, coef)
    assert got.shape == (n_rows,)
    assert np.all(np.abs(got - k @ coef) <= 1e-12 * (magnitudes * np.abs(coef)).sum(axis=1))


def test_quadratic_rows_score_alone_as_in_a_batch():
    """Under the degree-2 polynomial each row scores bit for bit the same
    alone (as dose scores it) as in any batch (as gate scores it)."""
    rng = np.random.default_rng(21)
    model = _random_model(POLY21, 300, 12, rng)
    rows = rng.normal(size=(2 * SCORE_BLOCK_ROWS + 3, 12))
    batch = decision_values(model, rows)
    alone = np.array([decision_values(model, row)[0] for row in rows])
    assert np.array_equal(batch.view(np.int64), alone.view(np.int64))
    for size in (2, 3, 5, 8, SCORE_BLOCK_ROWS + 1):
        pieces = [decision_values(model, rows[i:i + size]) for i in range(0, rows.shape[0], size)]
        assert np.array_equal(batch.view(np.int64), np.concatenate(pieces).view(np.int64))


def test_quadratic_scores_hold_no_rows_by_vectors_array(monkeypatch):
    # paper-scale shapes: a 2,119-row test split against 1,288 support
    # vectors of 12 features
    def refuse(*args):
        raise AssertionError("degree-2 scoring evaluated kernel rows")

    monkeypatch.setattr(svm, "kernel_matrix", refuse)
    monkeypatch.setattr(kernels, "kernel_matrix", refuse)
    rng = np.random.default_rng(7)
    rows, vectors = rng.normal(size=(2119, 12)), rng.normal(size=(1288, 12))
    coef = rng.uniform(-0.1, 0.1, 1288)
    tracemalloc.start()
    try:
        svm._kernel_scores(POLY21, rows, vectors, coef)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < rows.shape[0] * vectors.shape[0] * 8 / 16


def test_quadratic_form_is_built_once_per_model(monkeypatch):
    built = []
    original = svm._quadratic_form

    def counting(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(svm, "_quadratic_form", counting)
    rng = np.random.default_rng(3)
    model = _random_model(POLY21, 20, 4, rng)
    decision_values(model, rng.normal(size=(5, 4)))
    decision_values(model, rng.normal(size=(1, 4)))
    assert len(built) == 1
    # a model with other multipliers builds its own
    decision_values(replace(model, alphas=2.0 * model.alphas), rng.normal(size=(1, 4)))
    assert len(built) == 2


ANOVA = KernelSpec(variant="anova", sigma=1.0, d=1)


@pytest.mark.parametrize("kernel", [
    LINEAR, ANOVA, KernelSpec(variant="anova", sigma=0.5, d=2, n_dims=2),
], ids=KernelSpec.to_text)
@pytest.mark.parametrize("n_rows, n_vectors", [
    (1, 8), (SCORE_BLOCK_ROWS + 1, 8), (2 * SCORE_BLOCK_ROWS + 1, 300), (40, 1), (40, 0), (1, 0),
])
def test_additive_scores_agree_with_the_kernel_matrix_product(kernel, n_rows, n_vectors):
    """Linear and anova score one dimension at a time, not through
    kernel_matrix; each score agrees with the matrix product to 1e-12 of
    the sum of its terms' magnitudes."""
    seed = n_rows * 1000 + n_vectors
    rows, vectors = mixed_rows(n_rows, seed), mixed_rows(n_vectors, seed + 1)
    coef = np.random.default_rng(seed).uniform(-1.0, 1.0, n_vectors)
    k = kernel_matrix(kernel, rows, vectors)
    got = svm._kernel_scores(kernel, rows, vectors, coef)
    assert got.shape == (n_rows,)
    assert np.all(np.abs(got - k @ coef) <= 1e-12 * np.abs(k * coef).sum(axis=1))


@pytest.mark.parametrize("n_rows", [1, SCORE_BLOCK_ROWS + 1])
def test_anova_dimensions_past_the_input_width_are_a_domain_error_when_scoring(n_rows):
    vectors = mixed_rows(5, seed=8)
    d = vectors.shape[1]
    model = SvmModel(
        kernel=KernelSpec(variant="anova", n_dims=d + 1), support_vectors=vectors,
        alphas=np.full(5, 0.5), sv_labels=np.array([1.0, -1.0, 1.0, -1.0, 1.0]), bias=0.0,
        feature_names=tuple(f"f{k}" for k in range(d)), scaler_means=np.zeros(d),
        scaler_scales=np.ones(d), converged=True, max_kkt_violation=0.0, dual_objective=0.0)
    with pytest.raises(DomainError, match="n_dims"):
        decision_values(model, mixed_rows(n_rows, seed=9))


def test_anova_scores_hold_no_rows_by_vectors_array():
    # paper-scale shapes: 2,118 training rows against 1,370 multipliers
    # off zero, ten coded dimensions and three continuous ones
    rng = np.random.default_rng(6)
    rows = np.column_stack([rng.integers(0, 9, 2118)] + [rng.integers(0, 2, 2118)] * 9
                           + [rng.normal(size=2118) for _ in range(3)]).astype(float)
    coef = rng.uniform(-0.1, 0.1, 1370)
    vectors = rows[:1370].copy()
    tracemalloc.start()
    try:
        svm._kernel_scores(ANOVA, rows, vectors, coef)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < rows.shape[0] * vectors.shape[0] * 8 / 16
