"""Acceptance suite: one test per shipped guarantee.

Each test is self-contained, uses its own seeded RNG, and enforces its
own runtime budget. Run with ``pytest tests/test_acceptance.py -v`` to
get one pass/fail line per guarantee. The real-cohort reproduction test
only runs when DOSEGATE_IWPC_FILE points at the public warfarin export;
everything else is hermetic.
"""

import json
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from dosegate.cli import main
from dosegate.cohort import apply_imputation, fit_imputation, split_cohort
from dosegate.gate import GateConfig, evaluate_gate, fit_gate, label_cohort
from dosegate.iwpc import predict_weekly_dose, sqrt_weekly_doses
from dosegate.kernels import KernelSpec, kernel_matrix
from dosegate.metrics import confusion, mae, metrics, rmse
from dosegate.records import Race
from dosegate.svm import TrainConfig, decision_values, score_signs, train
from dosegate.synth import generate_synthetic_cohort

from helpers import make_patient, solver_limits
from reference_qp import reference_dual_solve

POLY = KernelSpec("polynomial", degree=2, offset=1.0)


def test_dose_model_matches_independent_hand_arithmetic():
    """Sqrt-dose predictor agrees with longhand arithmetic to 1e-9."""
    rng = np.random.default_rng(42)
    races = (Race.WHITE, Race.AFRICAN_AMERICAN, Race.ASIAN, None)
    for i in range(20):
        age = int(rng.integers(1, 10))
        height = float(rng.uniform(140.0, 200.0))
        weight = float(rng.uniform(40.0, 140.0))
        race = races[i % 4]
        enzyme = int(rng.integers(0, 2))
        amiodarone = int(rng.integers(0, 2))

        expected = 4.0376 - 0.2546 * age + 0.0118 * height + 0.0134 * weight
        if race is None:
            expected += 0.0443
        elif race == Race.ASIAN:
            expected += -0.6752
        elif race == Race.AFRICAN_AMERICAN:
            expected += 0.406
        expected += 1.2799 * enzyme - 0.5695 * amiodarone

        patient = make_patient(age_decade=age, height_cm=height, weight_kg=weight,
                               race=race, enzyme=enzyme, amiodarone=amiodarone)
        assert abs(sqrt_weekly_doses(patient)[0] - expected) <= 1e-9


def _random_instance(trial):
    """A small training problem; sigmoid draws are rejection-sampled.

    tanh kernels are not conditionally positive definite in general, and
    on an indefinite Gram the dual has local maxima, so objective
    agreement with the reference solver is only a meaningful contract on
    draws whose centered Gram is numerically CPD.
    """
    variants = ("linear", "polynomial", "rbf", "sigmoid", "anova")
    rng = np.random.default_rng(7000 + trial)
    variant = variants[trial % 5]
    c = (0.1, 1.0, 100.0)[trial % 3]
    n = int(rng.integers(3, 11))
    dims = int(rng.integers(1, 5))
    while True:
        x = rng.normal(size=(n, dims))
        if variant == "linear":
            spec = KernelSpec("linear")
        elif variant == "polynomial":
            spec = KernelSpec("polynomial", degree=int(rng.integers(2, 4)), offset=1.0)
        elif variant == "rbf":
            spec = KernelSpec("rbf", delta=float(rng.uniform(0.7, 2.0)))
        elif variant == "anova":
            spec = KernelSpec("anova", sigma=float(rng.uniform(0.5, 1.5)), d=2)
        else:
            x = 0.35 * x
            spec = KernelSpec("sigmoid", theta=float(rng.uniform(-1.0, 0.0)))
            k = kernel_matrix(spec, x, x)
            center = np.eye(n) - np.full((n, n), 1.0 / n)
            m = center @ k @ center
            scale = max(1.0, float(np.abs(k).max()))
            if float(np.linalg.eigvalsh(0.5 * (m + m.T))[0]) < -1e-10 * scale:
                continue
        z = rng.choice([-1.0, 1.0], size=n)
        if np.any(z > 0) and np.any(z < 0):
            return x, z, spec, c, rng


def _low_rank_instance(trial):
    """Rows well above the kernel's rank: 6-10 rows under a linear kernel
    on 2 or 3 features (rank 2 or 3) or 9-12 rows under a degree-2
    polynomial kernel on 2 features (rank 6), so the trainer solves on a
    rank-deficient factor."""
    rng = np.random.default_rng(9000 + trial)
    c = (0.1, 1.0, 100.0)[trial % 3]
    if trial % 2:
        spec, dims, n = KernelSpec("polynomial", degree=2, offset=1.0), 2, int(rng.integers(9, 13))
    else:
        spec, dims, n = KernelSpec("linear"), int(rng.integers(2, 4)), int(rng.integers(6, 11))
    while True:
        x = rng.normal(size=(n, dims))
        z = rng.choice([-1.0, 1.0], size=n)
        if np.any(z > 0) and np.any(z < 0):
            return x, z, spec, c, rng


def test_trainer_dual_objective_and_predictions_match_reference_solver(monkeypatch):
    """300 random instances, every kernel, C in {0.1, 1, 100}, a third of
    them with rows well above the kernel's rank: the trainer's dual
    objective lands within 1e-5 of the independent QP solver and
    predictions agree everywhere the decision value is not within 1e-6
    of the boundary. Budget: one minute."""
    solver_limits(monkeypatch, kkt_tolerance=1e-6, max_passes=500)
    start = time.monotonic()
    instances = [_random_instance(trial) for trial in range(200)]
    instances += [_low_rank_instance(trial) for trial in range(100)]
    for trial, (x, z, spec, c, rng) in enumerate(instances):
        config = TrainConfig(c_regularization=c, balance_classes=False, seed=trial)
        model = train(x, z, kernel=spec, config=config)
        ref = reference_dual_solve(x, z, spec, c)
        assert abs(model.dual_objective - ref.objective) <= 1e-5

        lo, hi = x.min(axis=0) - 0.5, x.max(axis=0) + 0.5
        probes = rng.uniform(lo, hi, size=(25, x.shape[1]))
        dv_model = decision_values(model, probes)
        dv_ref = kernel_matrix(spec, probes, x) @ (ref.alphas * z) + ref.bias
        sure = (np.abs(dv_model) >= 1e-6) & (np.abs(dv_ref) >= 1e-6)
        assert np.array_equal(np.sign(dv_model[sure]), np.sign(dv_ref[sure]))
    assert time.monotonic() - start < 60.0


def test_default_kernel_converges_at_every_default_c(tmp_path):
    """The CLI's default kernel on a 1000-patient synthetic cohort: the
    fit at every C of the default grid reaches the KKT tolerance."""
    src = tmp_path / "src"
    assert main(["synth", "--n", "1000", "--seed", "3", "--out-dir", str(src)]) == 0
    for c in ("0.1", "1", "10", "100"):
        run = tmp_path / f"c{c}"
        assert main(["train", "--input", str(src / "cohort.tsv"), "--out-dir", str(run),
                     "--seed", "3", "--c-grid", c]) == 0
        report = dict(line.split(" ", 1) for line in
                      (run / "train_report.txt").read_text().splitlines())
        assert report["converged"] == "1", f"C={c}"
        assert float(report["max_kkt_violation"]) <= 1e-3, f"C={c}"


def test_analytic_two_point_and_xor_cases(monkeypatch):
    """Hard-margin classics with known closed-form answers."""
    solver_limits(monkeypatch, kkt_tolerance=1e-6, max_passes=500)
    config = TrainConfig(c_regularization=1e6, balance_classes=False)

    x = np.array([[0.0, 0.0], [2.0, 2.0]])
    z = np.array([-1.0, 1.0])
    model = train(x, z, kernel=KernelSpec("linear"), config=config)
    # boundary x1 + x2 = 2, so f(x) = (x1 + x2)/2 - 1
    assert abs(model.bias - (-1.0)) <= 1e-6
    dv = decision_values(model, x)
    assert abs(dv[0] - (-1.0)) <= 1e-6
    assert abs(dv[1] - 1.0) <= 1e-6

    xor = np.array([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    labels = np.array([-1.0, -1.0, 1.0, 1.0])
    model = train(xor, labels, kernel=POLY, config=config)
    for row, want in zip(xor, labels):
        assert score_signs(decision_values(model, row))[0] == want


def test_gram_symmetry_and_positive_semidefiniteness():
    """Polynomial and RBF Grams on 100 random 20x5 matrices are
    symmetric to 1e-12 with smallest eigenvalue >= -1e-9."""
    rng = np.random.default_rng(11)
    for trial in range(100):
        x = rng.normal(scale=rng.uniform(0.5, 2.0), size=(20, 5))
        specs = (
            KernelSpec("polynomial", degree=int(rng.integers(2, 4)), offset=1.0),
            KernelSpec("rbf", delta=float(rng.uniform(0.5, 2.0))),
        )
        for spec in specs:
            gram = kernel_matrix(spec, x, x)
            assert float(np.abs(gram - gram.T).max()) <= 1e-12
            assert float(np.linalg.eigvalsh(gram)[0]) >= -1e-9


def test_metrics_match_brute_force_recomputation():
    """Confusion counts exactly; ratios and error norms to 1e-12, on
    1000 random label vectors and dose-vector pairs."""
    rng = np.random.default_rng(97)
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        truth = rng.choice([-1, 1], size=n)
        predicted = rng.choice([-1, 1], size=n)
        cm = confusion(truth, predicted)
        tp = sum(1 for t, p in zip(truth, predicted) if t == 1 and p == 1)
        fp = sum(1 for t, p in zip(truth, predicted) if t == -1 and p == 1)
        tn = sum(1 for t, p in zip(truth, predicted) if t == -1 and p == -1)
        fn = sum(1 for t, p in zip(truth, predicted) if t == 1 and p == -1)
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (tp, fp, tn, fn)

        summary = metrics(cm)
        for got, num, den in ((summary.accuracy, tp + tn, n),
                              (summary.sensitivity, tp, tp + fn),
                              (summary.specificity, tn, tn + fp)):
            if den == 0:
                assert got is None
            else:
                assert abs(got - num / den) <= 1e-12

        m = int(rng.integers(1, 60))
        actual = rng.normal(scale=10.0, size=m)
        predicted_dose = rng.normal(scale=10.0, size=m)
        sq = [(a - b) ** 2 for a, b in zip(actual, predicted_dose)]
        ab = [abs(a - b) for a, b in zip(actual, predicted_dose)]
        assert abs(rmse(actual, predicted_dose) - math.sqrt(sum(sq) / m)) <= 1e-12
        assert abs(mae(actual, predicted_dose) - sum(ab) / m) <= 1e-12


def test_oracle_gate_monotonicity_and_identity_control():
    """On 50 synthetic cohorts the oracle gate never hurts RMSE and
    keeps only patients inside the 15% band; the identity gate changes
    nothing. Budget: two minutes."""
    start = time.monotonic()
    threshold = GateConfig().threshold
    for seed in range(50):
        cohort = generate_synthetic_cohort(500, seed=seed)
        train_recs, test_recs = split_cohort(cohort, 0.5, seed=seed)

        plan = fit_imputation(train_recs)
        oracle, test_labels = evaluate_gate(None, plan, test_recs, gate_mode="oracle")
        assert oracle.rmse_shrunken <= oracle.rmse_original
        kept = np.flatnonzero(test_labels.labels < 0)
        imputed = apply_imputation(plan, test_recs)
        for i in kept:
            actual = test_recs["therapeutic_dose_mg_week"][i]
            rel = abs(predict_weekly_dose(imputed.take([i])) - actual) / actual
            assert rel <= threshold

        identity, _ = evaluate_gate(None, plan, test_recs, gate_mode="identity")
        assert identity.rmse_shrunken == identity.rmse_original
        assert identity.mae_shrunken == identity.mae_original
        assert identity.shrink_ratio == 1.0
    assert time.monotonic() - start < 120.0


def test_trained_gate_improves_rmse_across_seeded_runs():
    """The trained polynomial gate strictly shrinks test RMSE in at
    least 45 of 50 seeded synthetic runs. Budget: ten minutes."""
    start = time.monotonic()
    wins = 0
    for seed in range(50):
        cohort = generate_synthetic_cohort(500, seed=seed)
        train_recs, test_recs = split_cohort(cohort, 0.5, seed=seed)
        fitted = fit_gate(train_recs, POLY, c_grid=(1.0,), train_config=TrainConfig(seed=seed))
        report, _ = evaluate_gate(fitted.model, fitted.plan, test_recs, gate_mode="trained")
        if report.rmse_shrunken < report.rmse_original:
            wins += 1
    assert wins >= 45
    assert time.monotonic() - start < 600.0


@pytest.mark.skipif(
    "DOSEGATE_IWPC_FILE" not in os.environ,
    reason="best-effort reproduction; runs only when DOSEGATE_IWPC_FILE "
           "points at the public warfarin cohort export (not a CI gate)",
)
def test_best_effort_real_cohort_reproduction():
    """Against the public cohort: inclusion yields about 4237 patients,
    label counts land within 5% of 3252/985, and the trained gate
    improves RMSE by 5-25% and MAE by 7-27%. Budget: fifteen minutes."""
    from dosegate.cohort import (
        filter_unbalanced,
        fit_imputation,
        load_schema,
        parse_cohort,
    )

    start = time.monotonic()
    schema_path = Path(__file__).resolve().parents[1] / "src" / "dosegate" / \
        "schemas" / "iwpc_pharmgkb.txt"
    schema = load_schema(schema_path)
    text = Path(os.environ["DOSEGATE_IWPC_FILE"]).read_text(encoding="utf-8")
    result = parse_cohort(text, schema)
    cohort = result.cohort
    filter_unbalanced(cohort)
    assert 4000 <= len(cohort) <= 4500

    labels = label_cohort(apply_imputation(fit_imputation(cohort), cohort))
    assert abs(labels.n_high_risk - 3252) <= 0.05 * 3252
    assert abs(labels.n_safe - 985) <= 0.05 * 985

    train_recs, test_recs = split_cohort(cohort, 0.5, seed=0)
    fitted = fit_gate(train_recs, POLY, c_grid=(1.0,), train_config=TrainConfig(seed=0))
    report, _ = evaluate_gate(fitted.model, fitted.plan, test_recs, gate_mode="trained")
    rmse_gain = (report.rmse_original - report.rmse_shrunken) / report.rmse_original
    mae_gain = (report.mae_original - report.mae_shrunken) / report.mae_original
    assert 0.05 <= rmse_gain <= 0.25
    assert 0.07 <= mae_gain <= 0.27
    assert time.monotonic() - start < 900.0


def test_train_and_evaluate_artifacts_are_byte_identical(tmp_path):
    """Two train+evaluate runs with the same seed and input produce the
    same bytes in every artifact, wherever the output directory lives."""
    src = tmp_path / "src"
    assert main(["synth", "--n", "300", "--seed", "13", "--out-dir", str(src)]) == 0
    for name in ("first", "second"):
        run = tmp_path / name
        assert main(["train", "--input", str(src / "cohort.tsv"),
                     "--out-dir", str(run), "--seed", "13", "--c-grid", "1"]) == 0
        assert main(["evaluate", "--run-dir", str(run)]) == 0

    artifacts = sorted(p.name for p in (tmp_path / "first").iterdir())
    assert artifacts == ["config.txt", "evaluation.json", "evaluation.txt",
                         "model.txt", "plan.txt", "test.tsv", "train_report.txt"]
    for name in artifacts:
        first = (tmp_path / "first" / name).read_bytes()
        second = (tmp_path / "second" / name).read_bytes()
        assert first == second, f"{name} differs between identical runs"
