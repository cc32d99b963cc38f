"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

Runs the program once on a small synthetic cohort, confirms that every
check accepts the real outputs, then gives each check a deliberately
wrong value and confirms that the check rejects it. Exits 1 if any
check accepts a wrong value or rejects a right one.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import reference as ref  # noqa: E402


def _cli(argv) -> str:
    from dosegate import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"dosegate {' '.join(argv)} exited {code}")
    return out.getvalue()


def _replace_line(text: str, key: str, value: str) -> str:
    return "\n".join(f"{key} {value}" if line.split(" ", 1)[0] == key else line
                     for line in text.splitlines()) + "\n"


def _set_accuracy(report: str, c: float, accuracy: str) -> str:
    """Set the mean CV accuracy that train_report.txt gives for ``c``."""
    return "\n".join(f"c {c:g} mean_accuracy {accuracy} std 0" if line.startswith(f"c {c:g} ")
                     else line for line in report.splitlines()) + "\n"


def _edit_sv(text: str, index: int, edit) -> str:
    """Apply ``edit(fields) -> fields`` to the index-th support vector line."""
    lines = text.splitlines()
    lines[10 + index] = " ".join(edit(lines[10 + index].split()))
    return "\n".join(lines) + "\n"


def _edit_json_line(text: str, index: int, **changes) -> str:
    lines = text.splitlines()
    record = json.loads(lines[index])
    record.update(changes)
    lines[index] = json.dumps(record, sort_keys=True)
    return "\n".join(lines) + "\n"


def main() -> int:
    work = BENCH / "runs" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    cwd = os.getcwd()
    os.chdir(work)
    try:
        return _selftest()
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)


def _selftest() -> int:
    _cli(["synth", "--n", "400", "--seed", "5", "--out-dir", "synth"])
    _cli(["train", "--input", "synth/cohort.tsv", "--out-dir", "run", "--seed", "5",
          "--c-grid", "0.1,1", "--cv-k", "2"])
    _cli(["ingest", "--input", "synth/cohort.tsv", "--out-dir", "ingested"])
    gate_out = _cli(["gate", "--run-dir", "run", "--jsonl", "--input", "ingested/cohort.tsv"])
    test_gate = _cli(["gate", "--run-dir", "run", "--jsonl"])
    _cli(["evaluate", "--run-dir", "run"])
    read = lambda p: Path(p).read_text(encoding="utf-8")  # noqa: E731
    report, model_text, plan = read("run/train_report.txt"), read("run/model.txt"), read("run/plan.txt")
    cohort, ingested, test = read("synth/cohort.tsv"), read("ingested/cohort.tsv"), read("run/test.tsv")
    exclusions, evaluation = read("ingested/exclusions.txt"), read("run/evaluation.json")
    model = ref.read_model(model_text)
    grid = (0.1, 1.0)
    patient = {"age_decade": 5, "height_cm": 170.0, "weight_kg": 80.0, "race": 1,
               "gender": 1, "target_inr": 2.5, **{k: 0 for k in ref.BINARY_FLAGS}}
    dose_out = _cli(["dose", "--run-dir", "run", *(f"{k}={v!r}" for k, v in patient.items())])

    def train_check(rep=report, mod=model_text):
        return checks.check_train(rep, mod, grid)

    def gate_check(out=gate_out, mod=model_text):
        return checks.check_gate(out, ingested, mod, plan)

    def evaluate_check(ev=evaluation, labels=test_gate):
        return checks.check_evaluate(ev, test, plan, labels)

    def dose_check(out=dose_out, mod=model):
        return checks.check_dose(out, patient, mod)

    def ingest_check(exc=exclusions, written=ingested):
        return checks.check_ingest(cohort, exc, written)

    selected = float(ref.read_key_values(report)["selected_c"])
    other = next(c for c in grid if c != selected)
    n_rows = int(ref.read_key_values(report)["train_rows"])
    eval_json = json.loads(evaluation)
    first_gate = json.loads(gate_out.splitlines()[0])

    def with_eval(**changes):
        return json.dumps({**eval_json, **changes})

    def alpha_times(factor):
        return _edit_sv(model_text, 0, lambda f: [f[0], repr(float(f[1]) * factor), *f[2:]])

    cases = [
        # (what is wrong, faults, expected text in a fault)
        ("selected C outside the grid", train_check(_replace_line(report, "selected_c", "3")),
         "not in the grid"),
        ("selected C not the most accurate", train_check(_replace_line(
            _set_accuracy(report, other, "0.000001"), "selected_c", f"{other:g}")),
         "not the most accurate"),
        ("tie not going to the smaller C", train_check(_replace_line(_set_accuracy(
            _set_accuracy(report, grid[0], "0.990000"), grid[1], "0.990000"),
            "selected_c", f"{grid[1]:g}")), "not the most accurate"),
        ("accuracy below the majority rate",
         train_check(_replace_line(_replace_line(report, "train_high_risk", str(n_rows - 1)),
                                   "train_safe", "1")), "majority-class rate"),
        ("alpha above its box", train_check(mod=alpha_times(1e6)), "exceed C*w_class"),
        ("alpha not positive", train_check(mod=alpha_times(-1.0)), "not positive"),
        ("sum alpha z off zero", train_check(mod=alpha_times(1.0 + 1e-6)), "sum alpha z"),
        ("dual objective off", train_check(mod=_replace_line(
            model_text, "dual_objective", repr(model["dual_objective"] * 1.001))), "dual_objective"),
        ("wrong kernel parameter", train_check(mod=_replace_line(
            model_text, "kernel", "polynomial degree=2 offset=2.0")), "dual_objective"),
        ("converged with a large KKT violation", train_check(mod=_replace_line(
            _replace_line(model_text, "converged", "1"), "max_kkt_violation", "0.5")),
         "max_kkt_violation"),
        ("excluded rows do not add up", ingest_check(exc=_replace_line(
            exclusions, "usable_rows", str(int(ref.read_key_values(exclusions)["usable_rows"]) + 1))),
         "data_rows"),
        ("written cohort lost a row", ingest_check(written=ingested.rsplit("\n", 2)[0] + "\n"),
         "written cohort"),
        ("gate lost a line", gate_check(out=gate_out.split("\n", 1)[1]), "output lines"),
        ("decision value off", gate_check(out=_edit_json_line(
            gate_out, 0, decision_value=first_gate["decision_value"] + 1e-4)), "decision_value"),
        ("label against the sign rule", gate_check(out=_edit_json_line(
            gate_out, 0, label="SafeForModel" if first_gate["label"] == "HighRisk" else "HighRisk")),
         "label"),
        ("dose off", gate_check(out=_edit_json_line(
            gate_out, 0, predicted_dose_mg_week=first_gate["predicted_dose_mg_week"] + 0.01)), "dose"),
        ("shrunken RMSE not below original", evaluate_check(ev=with_eval(
            rmse_shrunken=eval_json["rmse_original"] * 1.01)), "not below"),
        ("shrink ratio off the gate's share", evaluate_check(ev=with_eval(
            shrink_ratio=eval_json["shrink_ratio"] + 0.01)), "shrink_ratio"),
        ("original RMSE off", evaluate_check(ev=with_eval(
            rmse_original=eval_json["rmse_original"] * 1.0001)), "rmse_original"),
        ("dose call dose off", dose_check(out=_replace_line(
            dose_out, "dose_mg_week", f"{float(ref.read_key_values(dose_out)['dose_mg_week']) + 0.01:.3f}")),
         "dose_mg_week"),
        ("dose call decision value off", dose_check(out=_replace_line(
            dose_out, "decision_value",
            f"{float(ref.read_key_values(dose_out)['decision_value']) + 0.001:.6f}")),
         "decision_value"),
        ("dose call label flipped", dose_check(out=_replace_line(
            dose_out, "gate", "SafeForModel" if ref.read_key_values(dose_out)["gate"].startswith(
                "HighRisk") else "HighRisk (model not recommended for this patient)")), "gate"),
    ]

    failures = 0
    baseline = {"train": train_check(), "ingest": ingest_check(), "gate": gate_check(),
                "gate (test split)": checks.check_gate(test_gate, test, model_text, plan),
                "evaluate": evaluate_check(), "dose": dose_check()}
    for name, faults in baseline.items():
        verdict = "accepts the real output" if not faults else f"REJECTS THE REAL OUTPUT: {faults}"
        failures += bool(faults)
        print(f"{name:<40} {verdict}")
    for name, faults, expected in cases:
        caught = any(expected in fault for fault in faults)
        failures += not caught
        print(f"{name:<40} {'rejected' if caught else 'NOT REJECTED'}"
              f"{'' if caught else f' (faults: {faults})'}")

    # the reference formulas against hand arithmetic
    hand = (4.0376 - 0.2546 * 5 + 0.0118 * 170 + 0.0134 * 80) ** 2
    for name, got, want in (
        ("IWPC dose, white, no inducer", ref.iwpc_weekly_dose(5, 170, 80, 1, 0, 0), hand),
        ("IWPC dose, Asian, amiodarone", ref.iwpc_weekly_dose(5, 170, 80, 3, 0, 1),
         (hand ** 0.5 - 0.6752 - 0.5695) ** 2),
        ("linear kernel", ref.kernel({"variant": "linear"}, [[1.0, 2.0]], [[3.0, 4.0]])[0, 0],
         11.0),
        ("sigmoid kernel", ref.kernel({"variant": "sigmoid", "theta": -10.0},
                                      [[1.0, 2.0]], [[3.0, 4.0]])[0, 0], math.tanh(1.0)),
        ("rbf kernel of a unit step", ref.kernel({"variant": "rbf", "delta": 1.0},
                                                 [[0.0, 0.0]], [[1.0, 0.0]])[0, 0], math.exp(-0.5)),
        ("anova kernel, d=2", ref.kernel({"variant": "anova", "sigma": 1.0, "d": 2},
                                         [[0.0, 1.0]], [[1.0, 1.0]])[0, 0], math.exp(-2.0) + 1.0),
        ("polynomial kernel", ref.kernel({"variant": "polynomial", "degree": 2, "offset": 1.0},
                                         [[1.0, 2.0]], [[3.0, 4.0]])[0, 0], 144.0),
    ):
        good = abs(got - want) <= 1e-12 * max(1.0, abs(want))
        failures += not good
        print(f"{name:<40} {'matches hand arithmetic' if good else f'WRONG: {got} != {want}'}")
    print("self-test", "passed" if not failures else f"FAILED ({failures})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
