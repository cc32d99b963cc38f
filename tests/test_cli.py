"""End-to-end command-line checks.

Everything runs in-process through ``main(argv)`` so exit codes, stdout,
and artifact bytes are all observable without spawning a shell. A single
synth -> train pipeline is shared by the read-only tests; commands that
mutate their run directory build their own.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from dosegate.cli import main
from dosegate.cohort import (
    cohort_to_text,
    fit_imputation,
    plan_to_text,
    read_cohort,
    split_cohort,
)
from dosegate.gate import evaluate_gate, fit_gate
from dosegate.iwpc import predict_weekly_dose, weekly_doses
from dosegate.kernels import KernelSpec
from dosegate.model_io import save_model
from dosegate.svm import SvmModel, TrainConfig

import numpy as np

from helpers import CANONICAL_SCHEMA_FILE, make_patient, stack


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_pipeline")
    assert main(["synth", "--n", "260", "--seed", "5",
                 "--out-dir", str(root / "synth")]) == 0
    assert main(["train", "--input", str(root / "synth" / "cohort.tsv"),
                 "--out-dir", str(root / "run"), "--seed", "5",
                 "--c-grid", "1"]) == 0
    return root


@pytest.fixture(scope="module")
def run_dir(pipeline):
    return pipeline / "run"


def _stub_model_files(tmp_path, bias):
    """A run directory of a zero-support-vector model (decision value ==
    bias) plus a plan."""
    model = SvmModel(
        kernel=KernelSpec(variant="linear"),
        support_vectors=np.zeros((0, 2)),
        alphas=np.zeros(0),
        sv_labels=np.zeros(0),
        bias=bias,
        feature_names=("age_decade", "height_cm"),
        scaler_means=np.zeros(2),
        scaler_scales=np.ones(2),
        converged=True,
        max_kkt_violation=0.0,
        dual_objective=0.0,
    )
    save_model(model, tmp_path / "model.txt")
    plan = fit_imputation(stack([make_patient(), make_patient(height_cm=180.0)]))
    (tmp_path / "plan.txt").write_text(plan_to_text(plan), encoding="ascii")
    return str(tmp_path)


def test_synth_writes_cohort_and_config(tmp_path, capsys):
    assert main(["synth", "--n", "30", "--seed", "1",
                 "--out-dir", str(tmp_path)]) == 0
    lines = (tmp_path / "cohort.tsv").read_text().splitlines()
    assert len(lines) == 31  # header + 30 rows
    config = (tmp_path / "config.txt").read_text()
    assert "command=synth" in config
    assert "n=30" in config
    assert "seed=1" in config
    assert "out_dir" not in config
    assert "wrote 30 synthetic patients" in capsys.readouterr().out


def test_synth_without_out_dir_is_usage_error(capsys):
    assert main(["synth", "--n", "10"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_flag_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["synth", "--wat"])
    assert exc.value.code == 1


def test_version_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_unknown_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("bogus=1\n")
    assert main(["synth", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
    assert "bad config line" in capsys.readouterr().err


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("n=40\nseed=3\n")
    out = tmp_path / "out"
    assert main(["synth", "--config", str(cfg), "--seed", "5",
                 "--out-dir", str(out)]) == 0
    config = (out / "config.txt").read_text()
    assert "seed=5" in config  # flag wins
    assert "n=40" in config  # file fills the gap
    assert len((out / "cohort.tsv").read_text().splitlines()) == 41


def test_echoed_config_reproduces_run(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["synth", "--n", "35", "--seed", "9", "--out-dir", str(a)]) == 0
    assert main(["synth", "--config", str(a / "config.txt"),
                 "--out-dir", str(b)]) == 0
    assert (a / "cohort.tsv").read_bytes() == (b / "cohort.tsv").read_bytes()
    assert (a / "config.txt").read_bytes() == (b / "config.txt").read_bytes()


def test_ingest_missing_input_is_data_error(tmp_path, capsys):
    assert main(["ingest", "--input", str(tmp_path / "nope.tsv"),
                 "--out-dir", str(tmp_path / "o")]) == 2
    assert "data error" in capsys.readouterr().err


def test_ingest_counts_exclusions_and_reruns_identically(tmp_path):
    src = tmp_path / "src"
    assert main(["synth", "--n", "50", "--seed", "2", "--out-dir", str(src)]) == 0
    lines = (src / "cohort.tsv").read_text().splitlines()
    header = lines[0].split("\t")
    inr_col = header.index("inr")
    dose_col = header.index("therapeutic_dose_mg_week")

    # corrupt one row's INR out of range and blank another row's dose
    row1 = lines[1].split("\t")
    row1[inr_col] = "3.4"
    lines[1] = "\t".join(row1)
    row2 = lines[2].split("\t")
    row2[dose_col] = ""
    lines[2] = "\t".join(row2)
    raw = tmp_path / "raw.tsv"
    raw.write_text("\n".join(lines) + "\n")

    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["ingest", "--input", str(raw), "--out-dir", str(a)]) == 0
    exclusions = (a / "exclusions.txt").read_text()
    assert "data_rows 50" in exclusions
    assert "excluded_missing_dose 1" in exclusions
    assert "excluded_inr 1" in exclusions
    assert "usable_rows 48" in exclusions
    assert (a / "removed_variables.txt").exists()

    assert main(["ingest", "--input", str(raw), "--out-dir", str(b)]) == 0
    for name in ("cohort.tsv", "exclusions.txt", "removed_variables.txt", "config.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_train_writes_expected_artifacts(run_dir):
    for name in ("model.txt", "plan.txt", "test.tsv", "train_report.txt", "config.txt"):
        assert (run_dir / name).exists()
    report = (run_dir / "train_report.txt").read_text()
    assert "train_rows 130" in report
    assert "test_rows 130" in report
    assert "selected_c 1 (single-value grid, no CV)" in report
    assert "support_vectors " in report
    assert "dual_objective " in report


def test_train_is_deterministic(tmp_path):
    src = tmp_path / "src"
    assert main(["synth", "--n", "200", "--seed", "11", "--out-dir", str(src)]) == 0
    for out in ("a", "b"):
        assert main(["train", "--input", str(src / "cohort.tsv"),
                     "--out-dir", str(tmp_path / out), "--seed", "11",
                     "--c-grid", "1"]) == 0
    for name in ("model.txt", "plan.txt", "test.tsv", "train_report.txt", "config.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_train_one_class_cohort_is_numerical_error(tmp_path, capsys):
    # every dose equals the clinical prediction exactly, so every label
    # is SafeForModel and there is nothing to separate
    patients = []
    for i in range(24):
        fields = {"age_decade": 4 + i % 5, "height_cm": 158.0 + i,
                  "weight_kg": 62.0 + i}
        dose = predict_weekly_dose(make_patient(**fields))
        patients.append(make_patient(therapeutic_dose_mg_week=dose, **fields))
    src = tmp_path / "cohort.tsv"
    src.write_text(cohort_to_text(stack(patients)), encoding="ascii")
    assert main(["train", "--input", str(src), "--out-dir", str(tmp_path / "o"),
                 "--c-grid", "1"]) == 3
    assert "numerical error" in capsys.readouterr().err


def test_train_cv_accuracy_beats_majority_class(tmp_path):
    src = tmp_path / "src"
    assert main(["synth", "--n", "400", "--seed", "21", "--out-dir", str(src)]) == 0
    assert main(["train", "--input", str(src / "cohort.tsv"),
                 "--out-dir", str(tmp_path / "run"), "--seed", "21",
                 "--c-grid", "0.1,1,10", "--cv-k", "5"]) == 0
    report = (tmp_path / "run" / "train_report.txt").read_text()
    counts = {}
    accuracies = []
    for line in report.splitlines():
        parts = line.split()
        if parts[0] in ("train_high_risk", "train_safe"):
            counts[parts[0]] = int(parts[1])
        if parts[0] == "c" and "mean_accuracy" in parts:
            accuracies.append(float(parts[parts.index("mean_accuracy") + 1]))
    majority = max(counts.values()) / sum(counts.values())
    assert max(accuracies) > majority


@pytest.mark.parametrize("argv", [
    *(pytest.param(["train", "--c-grid", grid], id=grid)
      for grid in ("abc", "0.1,x", "0,1", "-1", "nan", "inf", "1,1", "0.1,1e-1")),
    pytest.param(["train", "--cv-k", "1"], id="cv-k 1"),
    pytest.param(["train", "--train-fraction", "1.5"], id="train-fraction 1.5"),
    pytest.param(["train", "--kernel", "bogus"], id="kernel bogus"),
    pytest.param(["train", "--kernel", "anova n_dims=0"], id="kernel anova n_dims=0"),
    *(pytest.param(["train", "--kernel", kernel], id=f"kernel {kernel}")
      for kernel in ("polynomial offset=nan", "polynomial offset=inf", "sigmoid theta=nan",
                     "anova sigma=inf", "rbf delta=inf", "polynomial degree=2 degree=3",
                     "rbf sigma=0.5")),
    pytest.param(["synth", "--n", "0"], id="synth n 0"),
    pytest.param(["synth", "--n", "-5"], id="synth n -5"),
])
def test_bad_c_grid_is_usage_error(pipeline, tmp_path, capsys, argv):
    out = tmp_path / "out"
    if argv[0] == "train":
        argv = [*argv, "--input", str(pipeline / "synth" / "cohort.tsv")]
    assert main([*argv, "--out-dir", str(out)]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not out.exists()


def test_cv_k_above_training_rows_is_data_error(pipeline, tmp_path, capsys):
    # 260 rows split in half leave 130 to deal into folds
    out = tmp_path / "out"
    assert main(["train", "--input", str(pipeline / "synth" / "cohort.tsv"),
                 "--out-dir", str(out), "--cv-k", "131"]) == 2
    assert "exceeds the 130 available rows" in capsys.readouterr().err
    assert not out.exists()


def test_coefficient_override_flag_takes_effect(pipeline, run_dir, tmp_path, capsys):
    coefficients = tmp_path / "coefficients.txt"
    coefficients.write_text("intercept=4.5\n", encoding="ascii")
    custom = ["--coefficients", str(coefficients)]
    assert main(["evaluate", "--run-dir", str(run_dir), *custom]) == 2
    assert "override" in capsys.readouterr().err

    assert main(["evaluate", "--run-dir", str(run_dir)]) == 0
    published = json.loads((run_dir / "evaluation.json").read_text())
    assert main(["evaluate", "--run-dir", str(run_dir), *custom,
                 "--allow-coefficient-override"]) == 0
    overridden = json.loads((run_dir / "evaluation.json").read_text())
    assert overridden["rmse_original"] != published["rmse_original"]

    assert main(["gate", "--run-dir", str(run_dir), "--jsonl", *custom,
                 "--allow-coefficient-override"]) == 0
    assert main(["dose", "--run-dir", str(run_dir), *custom,
                 "--allow-coefficient-override", "age_decade=5", "height_cm=170",
                 "weight_kg=80", "race=1", "enzyme=0", "amiodarone=0"]) == 0
    out = tmp_path / "run"
    assert main(["train", "--input", str(pipeline / "synth" / "cohort.tsv"),
                 "--out-dir", str(out), "--c-grid", "1", *custom,
                 "--allow-coefficient-override"]) == 0
    assert "allow_override=true" in (out / "config.txt").read_text()


@pytest.mark.parametrize("threshold", ["1.5", "0", "-0.2", "nan"])
def test_threshold_outside_unit_interval_is_usage_error(pipeline, run_dir, tmp_path,
                                                         capsys, threshold):
    assert main(["evaluate", "--run-dir", str(run_dir), "--threshold", threshold]) == 1
    assert "usage error" in capsys.readouterr().err
    assert main(["train", "--input", str(pipeline / "synth" / "cohort.tsv"),
                 "--out-dir", str(tmp_path / "run"), "--c-grid", "1",
                 "--threshold", threshold]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_gate_has_no_threshold_flag(run_dir):
    with pytest.raises(SystemExit) as exc:
        main(["gate", "--run-dir", str(run_dir), "--threshold", "0.2"])
    assert exc.value.code == 1


def test_evaluate_predicts_each_dose_once(run_dir, monkeypatch):
    import dosegate.gate
    import dosegate.iwpc

    calls = []

    def counting(cohort, coeffs=dosegate.iwpc.DEFAULT_COEFFICIENTS):
        calls.extend(range(len(cohort)))  # one entry per dose predicted
        return weekly_doses(cohort, coeffs)

    monkeypatch.setattr(dosegate.iwpc, "weekly_doses", counting)
    monkeypatch.setattr(dosegate.gate, "weekly_doses", counting)
    assert main(["evaluate", "--run-dir", str(run_dir)]) == 0
    n_test = len((run_dir / "test.tsv").read_text().splitlines()) - 1
    assert len(calls) == n_test


def test_cli_evaluation_equals_library_pipeline(pipeline, run_dir, tmp_path):
    # `train --seed 5 --c-grid 1` and `evaluate` against fit_gate and
    # evaluate_gate on the same cohort and split
    cohort = read_cohort(pipeline / "synth" / "cohort.tsv").cohort
    train_rows, test_rows = split_cohort(cohort, 0.5, 5)
    fitted = fit_gate(train_rows, KernelSpec(), (1.0,), 10, TrainConfig(seed=5))
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    for mode in ("trained", "identity", "oracle"):
        assert main(["evaluate", "--run-dir", str(run), "--gate-mode", mode]) == 0
        report, _ = evaluate_gate(fitted.model, fitted.plan, test_rows, mode)
        cm = report.confusion
        assert json.loads((run / "evaluation.json").read_text()) == {
            "gate_mode": mode, "tp": cm.tp, "fp": cm.fp, "tn": cm.tn, "fn": cm.fn,
            **{key: getattr(report, key) for key in (
                "accuracy", "sensitivity", "specificity", "rmse_original", "rmse_shrunken",
                "mae_original", "mae_shrunken", "shrink_ratio")},
        }


def test_evaluate_requires_model(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["evaluate", "--run-dir", str(empty)]) == 2
    assert "model.txt" in capsys.readouterr().err


def test_evaluate_trained_improves_rmse(run_dir, capsys):
    assert main(["evaluate", "--run-dir", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "gate_mode trained" in out
    payload = json.loads((run_dir / "evaluation.json").read_text())
    assert payload["rmse_shrunken"] < payload["rmse_original"]
    assert 0.0 < payload["shrink_ratio"] < 1.0
    assert (run_dir / "evaluation.txt").exists()


def test_evaluate_identity_keeps_every_row(run_dir):
    assert main(["evaluate", "--run-dir", str(run_dir),
                 "--gate-mode", "identity"]) == 0
    payload = json.loads((run_dir / "evaluation.json").read_text())
    assert payload["rmse_shrunken"] == payload["rmse_original"]
    assert payload["mae_shrunken"] == payload["mae_original"]
    assert payload["shrink_ratio"] == 1.0
    assert payload["tp"] == 0 and payload["fp"] == 0


def test_evaluate_oracle_never_hurts(run_dir):
    assert main(["evaluate", "--run-dir", str(run_dir),
                 "--gate-mode", "oracle"]) == 0
    payload = json.loads((run_dir / "evaluation.json").read_text())
    assert payload["rmse_shrunken"] <= payload["rmse_original"]
    assert payload["accuracy"] == 1.0


@pytest.mark.parametrize("mode", ["trained", "identity", "oracle"])
def test_evaluation_text_names_the_model(run_dir, mode, capsys):
    assert main(["evaluate", "--run-dir", str(run_dir), "--gate-mode", mode]) == 0
    model = dict(line.split(" ", 1) for line in
                 (run_dir / "model.txt").read_text().splitlines()[1:10])
    expected = (f"model kernel {model['kernel']}, support_vectors "
                f"{model['support_vectors']}, converged {model['converged']}")
    assert (run_dir / "evaluation.txt").read_text().splitlines()[:2] == [
        f"gate_mode {mode}", expected]
    assert capsys.readouterr().out == (run_dir / "evaluation.txt").read_text()


def test_gate_tsv_output(run_dir, capsys):
    assert main(["gate", "--run-dir", str(run_dir)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "id\tpredicted_dose_mg_week\tlabel\tdecision_value"
    assert lines[-1].startswith("# safe ")
    assert len(lines) == 130 + 2
    labels = {line.split("\t")[2] for line in lines[1:-1]}
    assert labels <= {"HighRisk", "SafeForModel"}


def test_gate_explicit_input_matches_default(run_dir, capsys):
    assert main(["gate", "--run-dir", str(run_dir)]) == 0
    default_out = capsys.readouterr().out
    assert main(["gate", "--run-dir", str(run_dir),
                 "--input", str(run_dir / "test.tsv")]) == 0
    assert capsys.readouterr().out == default_out


def test_gate_jsonl_payloads(run_dir, capsys):
    assert main(["gate", "--run-dir", str(run_dir), "--jsonl"]) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 130
    for line in lines:
        payload = json.loads(line)
        assert set(payload) == {"id", "predicted_dose_mg_week",
                                "decision_value", "label", "model_version"}
        assert payload["label"] in ("HighRisk", "SafeForModel")
        assert payload["model_version"] == 1
    assert "safe " in captured.err


def test_dose_reports_prediction_and_gate(tmp_path, capsys):
    run = _stub_model_files(tmp_path, bias=-1.0)
    assert main(["dose", "--run-dir", run,
                 "age_decade=5", "height_cm=170", "weight_kg=80",
                 "race=1", "enzyme=0", "amiodarone=0"]) == 0
    out = capsys.readouterr().out
    assert "sqrt_dose 5.8426" in out
    assert "dose_mg_week 34.136" in out
    assert "gate SafeForModel" in out
    assert "decision_value -1.000000" in out


def test_dose_high_risk_still_prints_dose(tmp_path, capsys):
    run = _stub_model_files(tmp_path, bias=1.0)
    assert main(["dose", "--run-dir", run,
                 "age_decade=5", "height_cm=170", "weight_kg=80",
                 "race=1", "enzyme=0", "amiodarone=0"]) == 0
    out = capsys.readouterr().out
    assert "dose_mg_week 34.136" in out
    assert "HighRisk (model not recommended" in out


def test_dose_missing_fields_are_listed(tmp_path, capsys):
    run = _stub_model_files(tmp_path, bias=-1.0)
    assert main(["dose", "--run-dir", run,
                 "age_decade=5"]) == 1
    err = capsys.readouterr().err
    assert "missing required patient fields" in err
    assert "height_cm" in err and "amiodarone" in err


def test_dose_unknown_field_rejected(tmp_path, capsys):
    run = _stub_model_files(tmp_path, bias=-1.0)
    assert main(["dose", "--run-dir", run,
                 "wat=1"]) == 1
    assert "unknown patient field" in capsys.readouterr().err


def test_repeated_calls_in_one_process_print_the_same(run_dir, tmp_path, capsys):
    # main reuses its parser and load_model its parsed model across calls;
    # neither may carry anything from one call into the next, so every call
    # prints the same whichever calls ran before it
    empty = tmp_path / "empty"
    empty.mkdir()
    dose = ["dose", "--run-dir", str(run_dir), "age_decade=5", "height_cm=170",
            "weight_kg=80", "race=1", "enzyme=0", "amiodarone=0"]
    calls = [
        (dose, 0),
        (["gate", "--run-dir", str(run_dir)], 0),
        (["gate", "--run-dir", str(run_dir), "--jsonl"], 0),
        (["dose", "--run-dir", str(run_dir), "age_decade=5"], 1),
        (["gate", "--run-dir", str(run_dir), "--wat"], 1),
        (["gate", "--run-dir", str(empty)], 2),
    ]

    def call(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    first = [call(argv) for argv, _ in calls]
    assert [code for code, _, _ in first] == [code for _, code in calls]
    again = [call(argv) for argv, _ in reversed(calls)][::-1]
    assert again == first

    src = Path(__file__).resolve().parents[1] / "src"
    fresh = subprocess.run([sys.executable, "-m", "dosegate.cli", *dose],
                           capture_output=True, text=True,
                           env={**os.environ, "PYTHONPATH": os.pathsep.join(
                               filter(None, (str(src), os.environ.get("PYTHONPATH"))))})
    assert (fresh.returncode, fresh.stdout, fresh.stderr) == first[0]


def _copy_run(run_dir, tmp_path):
    copy = tmp_path / "run"
    shutil.copytree(run_dir, copy)
    return copy


def test_non_text_model_is_data_error(run_dir, tmp_path, capsys):
    run = _copy_run(run_dir, tmp_path)
    with open(run / "model.txt", "ab") as model:
        model.write(b"\xe9")
    assert main(["gate", "--run-dir", str(run), "--jsonl"]) == 2
    assert "data error" in capsys.readouterr().err


def test_non_text_ingest_header_is_data_error(pipeline, tmp_path, capsys):
    raw = (pipeline / "synth" / "cohort.tsv").read_bytes()
    source = tmp_path / "raw.tsv"
    source.write_bytes(b"\xff" + raw)
    assert main(["ingest", "--input", str(source), "--out-dir", str(tmp_path / "o")]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("key, field, value", [
    ("bias", 1, "nan"), ("scales", 1, "0"), ("kernel", 3, "offset=nan"),
    ("kernel", 3, "sigma=0.5"),
])
@pytest.mark.parametrize("command", ["gate", "dose"])
def test_model_train_cannot_write_is_data_error(run_dir, tmp_path, capsys, key, field, value,
                                                command):
    run = _copy_run(run_dir, tmp_path)
    lines = (run / "model.txt").read_text(encoding="ascii").splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith(key + " "))
    parts = lines[i].split(" ")
    parts[field] = value
    lines[i] = " ".join(parts)
    (run / "model.txt").write_text("\n".join(lines) + "\n", encoding="ascii")
    patient = ["age_decade=5", "height_cm=170", "weight_kg=80", "race=white", "enzyme=0",
               "amiodarone=0"] if command == "dose" else []
    assert main([command, "--run-dir", str(run), *patient]) == 2
    assert "data error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["evaluate", "gate"])
def test_unreadable_plan_value_is_data_error(run_dir, tmp_path, capsys, command):
    run = _copy_run(run_dir, tmp_path)
    with open(run / "plan.txt", "a", encoding="ascii") as plan:
        plan.write("mean height_cm abc\n")
    assert main([command, "--run-dir", str(run)]) == 2
    assert "bad imputation plan line" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["mean heigth_cm 170", "mode raec 2", "mode height_cm 170"])
def test_plan_statistic_for_no_such_variable_is_data_error(run_dir, tmp_path, capsys, line):
    run = _copy_run(run_dir, tmp_path)
    with open(run / "plan.txt", "a", encoding="ascii") as plan:
        plan.write(line + "\n")
    assert main(["gate", "--run-dir", str(run)]) == 2
    assert "bad imputation plan line" in capsys.readouterr().err


def test_repeated_config_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("seed=1\nseed=2\n")
    out = tmp_path / "o"
    assert main(["synth", "--config", str(cfg), "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == (
        "dosegate synth: usage error: config key 'seed' given twice\n")
    assert not out.exists()


def test_repeated_coefficient_is_data_error(run_dir, tmp_path, capsys):
    coefficients = tmp_path / "coefficients.txt"
    coefficients.write_text("intercept=4.5\nintercept=9.9\n", encoding="ascii")
    assert main(["dose", "--run-dir", str(run_dir), "--coefficients", str(coefficients),
                 "--allow-coefficient-override", "age_decade=5", "height_cm=170",
                 "weight_kg=80", "race=1", "enzyme=0", "amiodarone=0"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "dosegate dose: data error: coefficient 'intercept' given twice\n"


def test_repeated_patient_field_is_usage_error(tmp_path, capsys):
    run = _stub_model_files(tmp_path, bias=-1.0)
    assert main(["dose", "--run-dir", run, "age_decade=5", "height_cm=170", "weight_kg=80",
                 "race=1", "enzyme=0", "amiodarone=0", "amiodarone=1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "dosegate dose: usage error: patient field 'amiodarone' given twice\n"


def test_unreadable_config_value_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    for command, line in (("synth", "seed=abc"), ("train", "balance_classes=maybe")):
        cfg.write_text(f"{line}\n")
        assert main([command, "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err == (
            f"dosegate {command}: usage error: bad config value: {line!r}\n")


def _dose_fields_with(field):
    """The dose model's fields, with ``field`` in place of the one it names."""
    key = field.partition("=")[0]
    fields = ("age_decade=5", "height_cm=170", "weight_kg=80", "race=1", "enzyme=0",
              "amiodarone=0")
    return [pair for pair in fields if not pair.startswith(key + "=")] + [field]


# "nan" names no value, and an integer too large for a float has none
@pytest.mark.parametrize("field", [
    "age_decade=abc", "height_cm=nan", "target_inr=nan",
    pytest.param("age_decade=" + "1" * 400, id="age_decade=400 digits"),
    "gender=inf", "enzyme=nan", "aspirin=-inf",
])
def test_dose_unreadable_field_is_usage_error(tmp_path, capsys, field):
    run = _stub_model_files(tmp_path, bias=-1.0)
    assert main(["dose", "--run-dir", run, *_dose_fields_with(field)]) == 1
    assert f"cannot read patient field {field!r}" in capsys.readouterr().err


@pytest.mark.parametrize("field, message", [
    ("age_decade=12", "age_decade must be an integer code 1..9, got 12"),
    ("age_decade=0", "age_decade must be an integer code 1..9, got 0"),
    ("height_cm=50", "height_cm 50.0 outside sanity bounds (100.0, 250.0)"),
    ("weight_kg=1e999", "weight_kg inf outside sanity bounds (20.0, 300.0)"),
    ("gender=2", "gender must be 0, 1, or missing; got 2"),
    ("aspirin=2", "aspirin must be 0, 1, or missing; got 2"),
    ("target_inr=0", "target_inr must be positive and finite, got 0.0"),
    ("target_inr=-1", "target_inr must be positive and finite, got -1.0"),
    ("age_decade=5.5", "age_decade must be an integer code 1..9, got 5.5"),
    ("gender=0.5", "gender must be 0, 1, or missing; got 0.5"),
    ("enzyme=1.5", "enzyme must be 0, 1, or missing; got 1.5"),
])
def test_dose_bad_field_is_data_error(run_dir, capsys, field, message):
    assert main(["dose", "--run-dir", str(run_dir), *_dose_fields_with(field)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"dosegate dose: data error: {message}\n"


def test_dose_reads_whole_number_codes_written_as_floats(run_dir, capsys):
    fields = ["height_cm=170", "weight_kg=80", "race=1", "amiodarone=0"]
    assert main(["dose", "--run-dir", str(run_dir), *fields,
                 "age_decade=5", "gender=1", "enzyme=1"]) == 0
    as_integers = capsys.readouterr()
    assert main(["dose", "--run-dir", str(run_dir), *fields,
                 "age_decade=5.0", "gender=1.0", "enzyme=1.0"]) == 0
    assert capsys.readouterr() == as_integers


def test_dose_plan_without_needed_mode_is_data_error(run_dir, tmp_path, capsys):
    run = _copy_run(run_dir, tmp_path)
    plan = run / "plan.txt"
    plan.write_text("".join(line + "\n" for line in plan.read_text().splitlines()
                            if not line.startswith("mode")), encoding="ascii")
    assert main(["dose", "--run-dir", str(run), "age_decade=5", "height_cm=170",
                 "weight_kg=80", "race=1", "enzyme=0", "amiodarone=0"]) == 2
    assert "plan lacks a statistic" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ingest", "evaluate", "gate", "dose"])
def test_seed_only_where_it_is_used(run_dir, tmp_path, command):
    argv = {
        "ingest": ["--input", str(run_dir / "test.tsv"), "--out-dir", str(tmp_path)],
        "dose": ["--run-dir", str(run_dir), "age_decade=5", "height_cm=170",
                 "weight_kg=80", "race=1", "enzyme=0", "amiodarone=0"],
    }.get(command, ["--run-dir", str(run_dir)])
    with pytest.raises(SystemExit) as exc:
        main([command, *argv, "--seed", "1"])
    assert exc.value.code == 1


@pytest.mark.parametrize("argv, message", [
    (["report"], "invalid choice: 'report'"),
    (["dose", "--model", "model.txt"], "unrecognized arguments: --model"),
    (["dose", "--plan", "plan.txt"], "unrecognized arguments: --plan"),
])
def test_read_side_commands_take_only_a_run_dir(run_dir, capsys, argv, message):
    # the run directory is a read-side command's one source
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--run-dir", str(run_dir)])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


BOM = "\ufeff".encode()


@pytest.mark.parametrize("kind", ["cohort", "schema", "config"])
def test_byte_order_mark_is_ignored(pipeline, tmp_path, kind):
    cohort = tmp_path / "cohort.tsv"
    cohort.write_bytes((pipeline / "synth" / "cohort.tsv").read_bytes())
    source = {"cohort": cohort, "schema": CANONICAL_SCHEMA_FILE, "config": None}[kind]
    data = source.read_bytes() if source else b"seed=8\nn=20\n"
    outputs = []
    for prefix in (b"", BOM):
        path = tmp_path / f"{kind}{len(prefix)}.txt"
        path.write_bytes(prefix + data)
        out = tmp_path / f"out{len(prefix)}"
        argv = {
            "cohort": ["ingest", "--input", str(path)],
            "schema": ["ingest", "--input", str(cohort), "--schema", str(path)],
            "config": ["synth", "--config", str(path)],
        }[kind]
        assert main([*argv, "--out-dir", str(out)]) == 0
        # an ingest echoes its input and schema paths, which differ here
        outputs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())
                        if f.name != "config.txt" or kind == "config"})
    assert outputs[1] == outputs[0]
    if kind != "config":  # the first column survives: no age_decade became NA
        assert outputs[0]["cohort.tsv"] == cohort.read_bytes()
