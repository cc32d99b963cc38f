"""The three workloads: their set-up, their rounds of CLI calls, and the
check each call's output gets.

Every input comes from `dosegate synth` with seeds derived from the run's
--seed. Every round of a workload makes the same calls. Paths are
relative to the run's work directory, so the artifacts of two runs with
the same seed are byte-identical wherever they ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import checks
import reference as ref

PAPER_N = 4237  # the paper's cohort
CLI_DEFAULT_C_GRID = (0.1, 1.0, 10.0, 100.0)  # `train` without --c-grid

SETUP_DIR = "s0"  # the set-up copy the timed part reads


def cohort_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


@dataclass
class Op:
    """One CLI call. ``key`` names its output: two calls with the same
    key must produce byte-identical output."""

    kind: str
    key: str
    argv: list
    outputs: tuple = ()  # files the call writes, relative to the work dir
    rows: int = 0  # rows the call reads, for the stage rates
    patient: dict = field(default=None, repr=False)


class Workload:
    name = ""
    min_rounds = 1

    def setup_commands(self, seed: int) -> list:
        raise NotImplementedError

    def prepare(self, seed: int, work: Path) -> None:
        """Read what the rounds need from the finished set-up."""

    def round_ops(self, seed: int) -> list:
        """The calls of one round: the same list every round."""
        raise NotImplementedError

    def check(self, op: Op, out: str, work: Path, first_out: dict) -> list:
        raise NotImplementedError

    def setup_check(self, work: Path) -> list:
        return []


def _train_outputs(out_dir: str) -> tuple:
    return tuple(f"{out_dir}/{name}" for name in
                 ("model.txt", "plan.txt", "test.tsv", "train_report.txt", "config.txt"))


def _read(work: Path, relative: str) -> str:
    return (work / relative).read_text(encoding="utf-8")


class CvTrain(Workload):
    """`train` with the CLI's default kernel and C grid, selecting C by
    cross-validation. One call per round."""

    name = "cv_train"
    n = 1000
    folds = 3

    def setup_commands(self, seed):
        return [["synth", "--n", str(self.n), "--seed", str(cohort_seed(seed, 0)),
                 "--out-dir", "cohort"]]

    def round_ops(self, seed):
        out = "cv"
        return [Op("train", out, ["train", "--input", f"{SETUP_DIR}/cohort/cohort.tsv",
                                  "--out-dir", out, "--seed", str(seed),
                                  "--cv-k", str(self.folds)],
                   outputs=_train_outputs(out), rows=self.n)]

    def check(self, op, out, work, first_out):
        return checks.check_train(_read(work, f"{op.key}/train_report.txt"),
                                  _read(work, f"{op.key}/model.txt"), CLI_DEFAULT_C_GRID)


KERNEL_SPECS = (
    "polynomial degree=2 offset=1",
    "linear",
    "rbf delta=1",
    "sigmoid theta=0",
    "anova sigma=1 d=1",
)


class KernelSweep(Workload):
    """One paper-scale `train` per kernel at a single C; a round is the
    five calls on the run's cohort."""

    name = "kernel_sweep"
    c = 0.1
    min_rounds = 3  # each call's median is over at least three repeats

    def setup_commands(self, seed):
        return [["synth", "--n", str(PAPER_N), "--seed", str(cohort_seed(seed, 0)),
                 "--out-dir", "cohort"]]

    def round_ops(self, seed):
        ops = []
        for spec in KERNEL_SPECS:
            out = f"ks_{spec.split()[0]}"
            ops.append(Op("train", out, ["train", "--input", f"{SETUP_DIR}/cohort/cohort.tsv",
                                         "--out-dir", out, "--seed", str(seed),
                                         "--c-grid", f"{self.c:g}", "--kernel", spec],
                          outputs=_train_outputs(out), rows=PAPER_N))
        return ops

    def check(self, op, out, work, first_out):
        return checks.check_train(_read(work, f"{op.key}/train_report.txt"),
                                  _read(work, f"{op.key}/model.txt"), (self.c,))


class PaperScore(Workload):
    """The read side at paper scale. Set-up trains a gate at C=0.1, where
    SMO converges; each round ingests and gates several cohorts, gates
    and evaluates the test split, and makes a closed loop of single-client
    `dose` calls. The gate is the same on every seed (its cohort and split
    have fixed seeds), as a deployed gate would be: the SMO fit's time
    depends on its cohort, and the seed picks the patients scored."""

    name = "paper_score"
    c = 0.1
    cohorts = 3
    dose_calls = 250
    min_rounds = 4  # at least 1,000 dose calls, so ten lie beyond p99
    run_dir = f"{SETUP_DIR}/run"
    gate_seed = 0  # cohort_seed(s, j) for the scored cohorts is never 0

    def setup_commands(self, seed):
        commands = [["synth", "--n", str(PAPER_N), "--seed", str(self.gate_seed),
                     "--out-dir", "cohort"],
                    ["train", "--input", "cohort/cohort.tsv", "--out-dir", "run",
                     "--seed", str(self.gate_seed), "--c-grid", f"{self.c:g}"]]
        commands += [["synth", "--n", str(PAPER_N), "--seed", str(cohort_seed(seed, j)),
                      "--out-dir", f"score{j}"] for j in range(1, self.cohorts + 1)]
        return commands

    def prepare(self, seed, work):
        self.model_text = _read(work, f"{self.run_dir}/model.txt")
        self.plan_text = _read(work, f"{self.run_dir}/plan.txt")
        self.model = ref.read_model(self.model_text)
        fill = ref.read_plan(self.plan_text)
        # fully specified patients: every field given, so none is imputed;
        # flags the cohort lacks are given the value the plan would fill
        needed = (*ref.DOSE_INPUTS, "gender", "target_inr")
        self.patients = []
        for row in ref.read_cohort(_read(work, f"{SETUP_DIR}/score1/cohort.tsv")):
            if any(row[k] is None for k in needed):
                continue
            patient = {k: row[k] for k in ("height_cm", "weight_kg", "target_inr")}
            for k in ("age_decade", "race", "gender"):
                patient[k] = int(row[k])
            for k in ref.BINARY_FLAGS:
                patient[k] = int(fill[k] if row[k] is None else row[k])
            self.patients.append(patient)
            if len(self.patients) == self.dose_calls:
                break

    def setup_check(self, work):
        return checks.check_train(_read(work, f"{self.run_dir}/train_report.txt"),
                                  self.model_text, (self.c,))

    def round_ops(self, seed):
        ops = []
        for j in range(1, self.cohorts + 1):
            ingested = f"ing{j}"
            ops.append(Op("ingest", ingested,
                          ["ingest", "--input", f"{SETUP_DIR}/score{j}/cohort.tsv",
                           "--out-dir", ingested],
                          outputs=tuple(f"{ingested}/{name}" for name in
                                        ("cohort.tsv", "exclusions.txt",
                                         "removed_variables.txt", "config.txt")),
                          rows=PAPER_N))
            ops.append(Op("gate", f"gate{j}", ["gate", "--run-dir", self.run_dir, "--jsonl",
                                               "--input", f"{ingested}/cohort.tsv"],
                          rows=PAPER_N))
        ops.append(Op("gate", "gate_test", ["gate", "--run-dir", self.run_dir, "--jsonl"],
                      rows=PAPER_N - PAPER_N // 2))
        ops.append(Op("evaluate", "evaluate", ["evaluate", "--run-dir", self.run_dir],
                      outputs=(f"{self.run_dir}/evaluation.txt",
                               f"{self.run_dir}/evaluation.json")))
        for i, patient in enumerate(self.patients):
            pairs = [f"{k}={v!r}" for k, v in patient.items()]
            ops.append(Op("dose", f"dose{i}", ["dose", "--run-dir", self.run_dir, *pairs],
                          rows=1, patient=patient))
        return ops

    def check(self, op, out, work, first_out):
        if op.kind == "ingest":
            j = op.key[len("ing"):]
            return checks.check_ingest(_read(work, f"{SETUP_DIR}/score{j}/cohort.tsv"),
                                       _read(work, f"{op.key}/exclusions.txt"),
                                       _read(work, f"{op.key}/cohort.tsv"))
        if op.kind == "gate":
            source = (f"{self.run_dir}/test.tsv" if op.key == "gate_test"
                      else f"ing{op.key[len('gate'):]}/cohort.tsv")
            return checks.check_gate(out, _read(work, source), self.model_text, self.plan_text)
        if op.kind == "evaluate":
            return checks.check_evaluate(_read(work, f"{self.run_dir}/evaluation.json"),
                                         _read(work, f"{self.run_dir}/test.tsv"),
                                         self.plan_text, first_out["gate_test"])
        return checks.check_dose(out, op.patient, self.model)


WORKLOADS = {w.name: w for w in (CvTrain(), KernelSweep(), PaperScore())}
