"""Confusion counts, classification metrics, and dose-error formulas."""

import math

import numpy as np
import pytest

from dosegate.errors import DomainError
from dosegate.metrics import (
    ConfusionMatrix,
    EvalReport,
    confusion,
    fmt_metric,
    mae,
    metrics,
    rmse,
)

H, S = 1, -1  # HighRisk / SafeForModel signs


def test_all_high_risk_correct():
    cm = confusion([H] * 5, [H] * 5)
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (5, 0, 0, 0)


def test_all_high_risk_missed():
    cm = confusion([H] * 5, [S] * 5)
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (0, 0, 0, 5)


def test_mixed_enumeration():
    cm = confusion([H, S, H, S], [H, H, S, S])
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (1, 1, 1, 1)


def test_length_mismatch_rejected():
    with pytest.raises(DomainError):
        confusion([H, S], [H])


def test_labels_must_be_exactly_minus_one_or_plus_one():
    # each of these was once read through int(), which truncates 1.5 to
    # 1 and parses "1", or failed with a TypeError
    for bad in ([1.5, -1.9], ["1", "-1"], [True, True], [0, 1], [1, None],
                [1.0, float("nan")], [[H, S]]):
        with pytest.raises(DomainError):
            confusion(bad, [H, S])
        with pytest.raises(DomainError):
            confusion([H, S], bad)
    with pytest.raises(DomainError):
        confusion([], [])
    cm = confusion(np.array([1.0, -1.0, -1.0]), np.array([1, -1, 1]))
    assert (cm.tp, cm.fp, cm.tn, cm.fn) == (1, 1, 1, 0)


def test_metrics_paper_shaped_example():
    got = metrics(ConfusionMatrix(tp=76, fn=24, tn=27, fp=73))
    assert got.sensitivity == pytest.approx(0.76)
    assert got.specificity == pytest.approx(0.27)
    assert got.accuracy == pytest.approx(0.515)


def test_metrics_zero_denominator_is_none():
    got = metrics(ConfusionMatrix(tp=50, fn=50, tn=0, fp=0))
    assert got.sensitivity == pytest.approx(0.5)
    assert got.specificity is None


def test_metrics_perfect_prediction():
    got = metrics(ConfusionMatrix(tp=7, fn=0, tn=0, fp=0))
    assert got.accuracy == 1.0 and got.sensitivity == 1.0
    assert got.specificity is None


def test_metrics_empty_matrix_rejected():
    with pytest.raises(DomainError):
        metrics(ConfusionMatrix(tp=0, fp=0, tn=0, fn=0))


def test_confusion_counts_never_negative():
    with pytest.raises(DomainError):
        ConfusionMatrix(tp=-1, fp=0, tn=0, fn=0)


def test_metrics_brute_force_loop():
    rng = np.random.default_rng(40)
    for _ in range(300):
        tp, fp, tn, fn = (int(v) for v in rng.integers(0, 50, size=4))
        if tp + fp + tn + fn == 0:
            continue
        got = metrics(ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn))
        assert got.accuracy == (tp + tn) / (tp + fp + tn + fn)
        assert got.sensitivity == (tp / (tp + fn) if tp + fn else None)
        assert got.specificity == (tn / (tn + fp) if tn + fp else None)


def test_rmse_examples():
    assert rmse([3.0, 4.0], [3.0, 4.0]) == 0.0
    assert rmse([2.0, 4.0], [4.0, 2.0]) == pytest.approx(2.0)
    assert rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5))


def test_mae_examples():
    assert mae([1.0, 1.0], [1.0, 1.0]) == 0.0
    assert mae([0.0, 0.0], [3.0, 4.0]) == pytest.approx(3.5)


def test_error_metric_domain_checks():
    for fn in (rmse, mae):
        with pytest.raises(DomainError):
            fn([], [])
        with pytest.raises(DomainError):
            fn([1.0], [1.0, 2.0])


def test_mae_never_exceeds_rmse():
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        a, p = rng.normal(size=n) * 10, rng.normal(size=n) * 10
        assert mae(a, p) <= rmse(a, p) + 1e-12
        assert rmse(a, p) >= 0.0


def test_error_metrics_permutation_invariant():
    rng = np.random.default_rng(42)
    a, p = rng.normal(size=20), rng.normal(size=20)
    order = rng.permutation(20)
    assert rmse(a, p) == pytest.approx(rmse(a[order], p[order]), rel=1e-12)
    assert mae(a, p) == pytest.approx(mae(a[order], p[order]), rel=1e-12)


def test_zero_error_iff_identical():
    rng = np.random.default_rng(43)
    a = rng.normal(size=10)
    p = a.copy()
    p[3] += 1e-9
    assert rmse(a, a) == 0.0 and mae(a, a) == 0.0
    assert rmse(a, p) > 0.0 and mae(a, p) > 0.0


def test_report_requires_positive_shrink_ratio():
    kwargs = dict(accuracy=0.5, sensitivity=0.5, specificity=0.5,
                  rmse_original=1.0, rmse_shrunken=1.0,
                  mae_original=1.0, mae_shrunken=1.0)
    EvalReport(shrink_ratio=0.5, **kwargs)
    with pytest.raises(DomainError):
        EvalReport(shrink_ratio=0.0, **kwargs)


def test_fmt_metric_rendering():
    assert fmt_metric(0.7607) == "76.07"
    assert fmt_metric(0.5) == "50.00"
    assert fmt_metric(None) == "—"
