"""Checks on the program's outputs.

Each check takes the texts the program wrote (files and standard output)
and returns a list of faults, empty when the output is right. The
expected values come from bench/reference.py or from properties the
method must have, never from a stored copy of earlier output.
"""

from __future__ import annotations

import json

import numpy as np

import reference as ref

DV_TOL = 1e-7  # gate --jsonl prints decision values to 9 decimals
DOSE_TOL = 1e-5  # gate --jsonl prints doses to 6 decimals


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def check_model(model: dict, c: float, n_rows: int, n_high: int, n_safe: int) -> list:
    """Box, equality constraint, dual objective and convergence claim."""
    faults = []
    alphas, labels = model["alphas"], model["labels"]
    box = np.where(labels > 0, c * n_rows / (2.0 * n_high), c * n_rows / (2.0 * n_safe))
    if not np.all(alphas > 0):
        faults.append(f"{int(np.sum(alphas <= 0))} alphas are not positive")
    if np.any(alphas > box * (1 + 1e-12)):
        faults.append(f"{int(np.sum(alphas > box * (1 + 1e-12)))} alphas exceed C*w_class")
    balance = abs(float(np.sum(alphas * labels)))
    if balance > 1e-8:
        faults.append(f"|sum alpha z| = {balance:.3g} > 1e-8")
    objective = ref.dual_objective(model)
    if not _close(model["dual_objective"], objective, 1e-7):
        faults.append(f"dual_objective {model['dual_objective']!r} != recomputed {objective!r}")
    if model["converged"] and not model["max_kkt_violation"] <= ref.KKT_TOLERANCE:
        faults.append(f"converged 1 with max_kkt_violation {model['max_kkt_violation']}")
    return faults


def check_train(report_text: str, model_text: str, grid) -> list:
    """train_report.txt and model.txt of one `train` call."""
    report = ref.read_key_values(report_text)
    model = ref.read_model(model_text)
    faults = []
    selected = float(report["selected_c"].split()[0])
    if selected not in grid:
        faults.append(f"selected_c {selected:g} is not in the grid")
    n_rows = int(report["train_rows"])
    n_high, n_safe = int(report["train_high_risk"]), int(report["train_safe"])
    if len(grid) > 1:
        accuracy = {}
        for line in report_text.splitlines():
            parts = line.split()
            if parts[:1] == ["c"] and parts[2] == "mean_accuracy":
                accuracy[float(parts[1])] = float(parts[3])
        if sorted(accuracy) != sorted(grid):
            faults.append(f"CV lines cover C values {sorted(accuracy)}, not the grid")
        else:
            # two different fold means differ by far more than the
            # 6 printed decimals resolve, so equal in print is a tie
            best = max(accuracy.values())
            tied = sorted(c for c, a in accuracy.items() if a == best)
            if selected != tied[0]:
                faults.append(f"selected_c {selected:g} is not the most accurate, "
                              f"smallest C among {tied}")
            majority = max(n_high, n_safe) / n_rows
            if not accuracy.get(selected, 0.0) > majority:
                faults.append(f"CV accuracy {accuracy.get(selected)} does not beat "
                              f"the majority-class rate {majority:.6f}")
    for key in ("converged", "max_kkt_violation", "dual_objective", "support_vectors"):
        if key in report and float(report[key]) != float(
                {"converged": model["converged"],
                 "max_kkt_violation": model["max_kkt_violation"],
                 "dual_objective": model["dual_objective"],
                 "support_vectors": model["alphas"].size}[key]):
            faults.append(f"train_report {key} disagrees with model.txt")
    return faults + check_model(model, selected, n_rows, n_high, n_safe)


def check_ingest(input_text: str, exclusions_text: str, written_text: str) -> list:
    counts = {k: int(v) for k, v in ref.read_key_values(exclusions_text).items()}
    faults = []
    excluded = counts["excluded_missing_dose"] + counts["excluded_inr"]
    if counts["usable_rows"] + excluded != counts["data_rows"]:
        faults.append(f"usable {counts['usable_rows']} + excluded {excluded} "
                      f"!= data_rows {counts['data_rows']}")
    rows = ref.read_cohort(input_text)
    if len(rows) != counts["data_rows"]:
        faults.append(f"data_rows {counts['data_rows']} but the input has {len(rows)} rows")
    usable = sum(1 for r in rows
                 if (r["therapeutic_dose_mg_week"] or 0) > 0
                 and r["inr"] is not None and 2.0 <= r["inr"] <= 3.0)
    if usable != counts["usable_rows"]:
        faults.append(f"usable_rows {counts['usable_rows']}, recounted {usable}")
    written = sum(1 for line in written_text.splitlines()[1:] if line.strip())
    if written != counts["usable_rows"]:
        faults.append(f"written cohort has {written} rows, usable_rows {counts['usable_rows']}")
    return faults


def check_gate(jsonl_text: str, cohort_text: str, model_text: str, plan_text: str) -> list:
    """gate --jsonl: one line per row, decision values, labels and doses."""
    rows = ref.read_cohort(cohort_text)
    lines = [json.loads(line) for line in jsonl_text.splitlines() if line.strip()]
    if len(lines) != len(rows):
        return [f"{len(lines)} output lines for {len(rows)} input rows"]
    model = ref.read_model(model_text)
    fill = ref.read_plan(plan_text)
    expected = ref.decision_values(model, [ref.impute(r, fill) for r in rows])
    faults = []
    for i, (row, out, dv) in enumerate(zip(rows, lines, expected), start=1):
        if out["id"] != i:
            faults.append(f"line {i} has id {out['id']}")
        if not abs(out["decision_value"] - dv) <= DV_TOL * max(1.0, abs(dv)):
            faults.append(f"row {i}: decision_value {out['decision_value']} != {dv:.9f}")
        if abs(out["decision_value"]) > DV_TOL:
            want = "HighRisk" if out["decision_value"] > 0 else "SafeForModel"
            if out["label"] != want:
                faults.append(f"row {i}: label {out['label']} for score {out['decision_value']}")
        if all(row[k] is not None for k in ref.DOSE_INPUTS):
            dose = ref.iwpc_weekly_dose(*(row[k] for k in ref.DOSE_INPUTS))
            if not _close(out["predicted_dose_mg_week"], dose, DOSE_TOL):
                faults.append(f"row {i}: dose {out['predicted_dose_mg_week']} != {dose:.6f}")
        if len(faults) >= 5:
            break
    return faults


def check_evaluate(evaluation_text: str, test_text: str, plan_text: str,
                   test_gate_jsonl: str) -> list:
    """evaluation.json against the dose formula and the gate's labels."""
    report = json.loads(evaluation_text)
    faults = []
    if not report["rmse_shrunken"] < report["rmse_original"]:
        faults.append(f"rmse_shrunken {report['rmse_shrunken']} is not below "
                      f"rmse_original {report['rmse_original']}")
    labels = [json.loads(line)["label"] for line in test_gate_jsonl.splitlines() if line.strip()]
    kept = [i for i, label in enumerate(labels) if label == "SafeForModel"]
    if not labels or report["shrink_ratio"] != len(kept) / len(labels):
        faults.append(f"shrink_ratio {report['shrink_ratio']} != gate's SafeForModel share "
                      f"{len(kept)}/{len(labels)}")
    fill = ref.read_plan(plan_text)
    patients = [ref.impute(r, fill) for r in ref.read_cohort(test_text)]
    actual = [p["therapeutic_dose_mg_week"] for p in patients]
    model = [ref.iwpc_weekly_dose(*(p[k] for k in ref.DOSE_INPUTS)) for p in patients]
    for key, value in (("rmse_original", ref.rmse(actual, model)),
                       ("rmse_shrunken", ref.rmse([actual[i] for i in kept],
                                                  [model[i] for i in kept]) if kept else -1)):
        if not _close(report[key], value, 1e-9):
            faults.append(f"{key} {report[key]} != recomputed {value}")
    return faults


def check_dose(stdout: str, patient: dict, model: dict) -> list:
    """dose output for a fully specified patient; ``model`` as read_model gives it."""
    out = ref.read_key_values(stdout)
    faults = []
    dose = ref.iwpc_weekly_dose(*(patient[k] for k in ref.DOSE_INPUTS))
    if not abs(float(out["dose_mg_week"]) - dose) <= 1e-3:
        faults.append(f"dose_mg_week {out['dose_mg_week']} != {dose:.3f}")
    dv = float(ref.decision_values(model, [patient])[0])
    printed = float(out["decision_value"])
    if not abs(printed - dv) <= 1e-5:
        faults.append(f"decision_value {printed} != {dv:.6f}")
    if abs(printed) > 1e-5:
        want = "HighRisk" if printed > 0 else "SafeForModel"
        if not out["gate"].startswith(want):
            faults.append(f"gate {out['gate']!r} for score {printed}")
    return faults
