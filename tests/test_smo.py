"""SMO against its reference loop, and the start at the upper corner.

From alpha = 0 the production loop must make the reference loop's pair
updates bit for bit (tests/reference_smo.py keeps that loop). From the
corner it may stop elsewhere within the KKT tolerance.
"""

import numpy as np
import pytest

from reference_smo import reference_smo

from dosegate.cohort import apply_imputation, fit_imputation, split_cohort
from dosegate.errors import DomainError
from dosegate.features import default_feature_names, encode_features
from dosegate.gate import label_cohort
from dosegate.kernels import KernelSpec, kernel_matrix
from dosegate.model_io import model_to_text
from dosegate.svm import (
    SUPPORT_EPSILON,
    TrainConfig,
    _box_bounds,
    _smo,
    _smo_start,
    pivoted_cholesky,
    train,
)
from dosegate.synth import generate_synthetic_cohort

RBF = KernelSpec(variant="rbf", delta=1.0)
SIGMOID = KernelSpec(variant="sigmoid", theta=0.0)


@pytest.fixture(scope="module")
def gate_rows():
    """Standardized training rows and labels of a 600-patient synthetic
    cohort, encoded as `train` encodes them (300 rows, past the factor's rank cap)."""
    train_rows, _ = split_cohort(generate_synthetic_cohort(600, 3), 0.5, 3)
    imputed = apply_imputation(fit_imputation(train_rows), train_rows)
    labels = label_cohort(imputed).labels
    x, _, _ = encode_features(imputed, default_feature_names(train_rows))
    return x, np.asarray(labels, dtype=float)


def _problem(kernel, x, z, config):
    upper = _box_bounds(z, config)
    return kernel_matrix(kernel, x, x), upper, 1e-12 * np.maximum(1.0, upper)


def _zero_start(gram, z, upper, snap, config):
    """The production loop from alpha = 0: (alpha, converged, updates)."""
    return _smo(gram, z, upper, snap, config, np.zeros(z.size), np.zeros(z.size))


def _assert_matches_reference(gram, z, upper, snap, config):
    alpha, converged, updates = _zero_start(gram, z, upper, snap, config)
    want_alpha, want_converged, _ = reference_smo(gram, z, upper, snap, config)
    assert alpha.tobytes() == want_alpha.tobytes()
    assert converged == want_converged
    return alpha, converged, updates


def _objective(gram, z, alpha):
    weighted = alpha * z
    return float(alpha.sum() - 0.5 * (weighted @ gram @ weighted))


@pytest.mark.parametrize("kernel", [RBF, SIGMOID], ids=["rbf", "sigmoid"])
@pytest.mark.parametrize("c", [0.1, 1.0, 10.0])
def test_zero_start_is_the_reference_bit_for_bit(gate_rows, kernel, c):
    x, z = gate_rows
    config = TrainConfig(c_regularization=c, seed=4)
    gram, upper, snap = _problem(kernel, x, z, config)
    _, converged, _ = _assert_matches_reference(gram, z, upper, snap, config)
    assert converged


@pytest.mark.parametrize("kernel", [RBF, SIGMOID], ids=["rbf", "sigmoid"])
def test_unbalanced_box_starts_at_zero_and_matches_reference(gate_rows, kernel):
    x, z = gate_rows
    assert np.count_nonzero(z > 0) != np.count_nonzero(z < 0)
    config = TrainConfig(c_regularization=1.0, balance_classes=False, seed=1)
    gram, upper, snap = _problem(kernel, x, z, config)
    # sum z_i C_i is C times the class-size difference: the corner is infeasible
    alpha0, score0 = _smo_start(gram, z, upper, indefinite=False)
    assert not alpha0.any() and not score0.any()
    _assert_matches_reference(gram, z, upper, snap, config)
    model = train(x, z, kernel=kernel, config=config)
    want = reference_smo(gram, z, upper, snap, config)[0]
    assert model.alphas.tobytes() == want[want > SUPPORT_EPSILON].tobytes()


def test_exhausted_budget_matches_reference(gate_rows):
    x, z = gate_rows
    config = TrainConfig(c_regularization=100.0, kkt_tolerance=1e-9, max_passes=1, seed=2)
    gram, upper, snap = _problem(RBF, x, z, config)
    _, converged, updates = _assert_matches_reference(gram, z, upper, snap, config)
    assert not converged
    assert updates == z.size


class _RecordingRng:
    """A numpy Generator that records the bound of every integers() draw."""

    def __init__(self, seed, draws):
        self._rng = np.random.Generator(np.random.PCG64(seed))
        self._draws = draws

    def integers(self, high):
        self._draws.append(int(high))
        return self._rng.integers(high)


def _draws_of(monkeypatch, solve):
    draws = []
    monkeypatch.setattr(np.random, "default_rng", lambda seed: _RecordingRng(seed, draws))
    result = solve()
    monkeypatch.undo()
    return result, draws


def _twins(seed):
    """Six rows and twins of the first two with the opposite label: the
    Gram matrix repeats rows, so a twin pair has eta = 0."""
    x = np.random.default_rng(seed).normal(size=(6, 2))
    z = np.array([-1.0, 1.0, -1.0, 1.0, 1.0, 1.0])
    return np.vstack([x, x[:2]]), np.concatenate([z, -z[:2]])


CORNER_SIX = (np.array([[-0.6, -0.4], [0.6, 0.3], [-1.1, 0.7], [-1.7, 1.1],
                        [-0.6, -0.4], [0.6, 0.3]]),
              np.array([1.0, -1.0, 1.0, 1.0, -1.0, 1.0]))


@pytest.mark.parametrize("x, z, config, path", [
    (*_twins(44), TrainConfig(c_regularization=1.0, balance_classes=False, seed=44), "excluded"),
    (*CORNER_SIX, TrainConfig(c_regularization=0.1, seed=2), "free_scan"),
], ids=["twins", "corner-six"])
def test_fallback_and_excluded_paths_match_reference(monkeypatch, x, z, config, path):
    gram, upper, snap = _problem(RBF, x, z, config)
    (alpha, converged, _), draws = _draws_of(
        monkeypatch, lambda: _zero_start(gram, z, upper, snap, config))
    (want_alpha, want_converged, paths), want_draws = _draws_of(
        monkeypatch, lambda: reference_smo(gram, z, upper, snap, config))
    assert paths[path] > 0 and paths["index_scan"] > 0
    assert alpha.tobytes() == want_alpha.tobytes() and converged == want_converged
    assert draws == want_draws


def test_corner_start_converges_with_fewer_updates(gate_rows):
    x, z = gate_rows
    config = TrainConfig(c_regularization=1.0, seed=5)
    gram, upper, snap = _problem(RBF, x, z, config)
    factor, indefinite = pivoted_cholesky(RBF, x)
    assert factor is None and not indefinite
    alpha0, score0 = _smo_start(gram, z, upper, indefinite)
    assert alpha0.tobytes() == upper.tobytes()
    assert score0.tobytes() == (gram @ (upper * z)).tobytes()
    corner_objective = _objective(gram, z, alpha0)
    assert corner_objective > 0.0  # W at the corner beats W(0) = 0

    alpha, converged, updates = _smo(gram, z, upper, snap, config, alpha0, score0)
    zero_alpha, zero_converged, zero_updates = _assert_matches_reference(
        gram, z, upper, snap, config)
    assert converged and zero_converged
    assert 0 < updates < zero_updates
    assert _objective(gram, z, alpha) == pytest.approx(_objective(gram, z, zero_alpha),
                                                       rel=1e-7)

    model = train(x, z, kernel=RBF, config=config)
    assert model.converged
    assert model.alphas.tobytes() == alpha[alpha > SUPPORT_EPSILON].tobytes()
    # the bounds a model file is checked against
    n_high, n_safe = np.count_nonzero(z > 0), np.count_nonzero(z < 0)
    box = np.where(model.sv_labels > 0, 1.0 * z.size / (2.0 * n_high),
                   1.0 * z.size / (2.0 * n_safe))
    assert np.all(model.alphas > 0)
    assert np.all(model.alphas <= box * (1 + 1e-12))
    assert abs(float(np.sum(model.alphas * model.sv_labels))) <= 1e-8
    assert model_to_text(train(x, z, kernel=RBF, config=config)) == model_to_text(model)


@pytest.mark.parametrize("kernel, c, refused_by", [
    (SIGMOID, 0.05, "a negative pivot"),
    (RBF, 10.0, "the dual at the corner"),
], ids=["sigmoid", "rbf"])
def test_zero_start_kept_where_the_corner_is_refused(gate_rows, kernel, c, refused_by):
    x, z = gate_rows
    config = TrainConfig(c_regularization=c, seed=6)
    gram, upper, snap = _problem(kernel, x, z, config)
    _, indefinite = pivoted_cholesky(kernel, x)
    # each case fails exactly one of the corner's conditions
    assert indefinite == (refused_by == "a negative pivot")
    assert (_objective(gram, z, upper) > 0.0) == indefinite
    assert not _smo_start(gram, z, upper, indefinite)[0].any()
    model = train(x, z, kernel=kernel, config=config)
    want = reference_smo(gram, z, upper, snap, config)[0]
    assert model.alphas.tobytes() == want[want > SUPPORT_EPSILON].tobytes()


def test_factor_tells_indefinite_from_full_rank(gate_rows):
    x, _ = gate_rows
    factor, indefinite = pivoted_cholesky(KernelSpec(variant="polynomial", degree=2,
                                                      offset=1.0), x)
    assert factor is not None and factor.shape[0] == x.shape[0] and not indefinite
    assert pivoted_cholesky(RBF, x) == (None, False)
    assert pivoted_cholesky(SIGMOID, x) == (None, True)


@pytest.mark.parametrize("field, value", [
    ("c_regularization", float("inf")),
    ("c_regularization", float("nan")),
    ("kkt_tolerance", float("inf")),
    ("kkt_tolerance", 0.0),
    ("max_passes", 2.5),
    ("max_passes", True),
    ("max_passes", 0),
])
def test_train_config_rejects_values_train_cannot_use(field, value):
    with pytest.raises(DomainError):
        TrainConfig(**{field: value})


def test_train_config_accepts_numpy_integers():
    assert TrainConfig(max_passes=np.int64(3)).max_passes == 3
