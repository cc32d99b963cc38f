"""Command-line entry point.

Subcommands: synth | ingest | train | evaluate | gate | dose.
Configuration comes from defaults, then an optional key=value config
file, then flags; the effective configuration is echoed into the output
directory so a run can be reproduced from its artifacts alone. All
artifacts are deterministic for a fixed seed and input (no timestamps).

Exit codes: 0 success, 1 usage, 2 data/schema, 3 numerical/degenerate.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .cohort import (
    CANONICAL_SCHEMA,
    _parse_race,
    apply_imputation,
    cohort_to_text,
    filter_unbalanced,
    load_plan,
    load_schema,
    parse_cohort,
    plan_to_text,
    read_cohort,
    split_cohort,
)
from .errors import (
    DataError,
    DomainError,
    DosegateError,
    NumericalError,
    UsageError,
    read_text,
)
from .gate import (
    GATE_MODES,
    GateConfig,
    GateLabel,
    classify_records,
    evaluate_gate,
    fit_gate,
)
from .iwpc import DEFAULT_COEFFICIENTS, load_coefficients, sqrt_weekly_doses, weekly_doses
from .kernels import KernelSpec
from .metrics import fmt_metric
from .model_io import load_model, save_model
from .records import BINARY_COVARIATES, CANONICAL_COLUMNS, Cohort
from .svm import LOW_RANK_CAP, TrainConfig


class _Option(NamedTuple):
    """A config key's option: ``FLAG VALUE``, or bool flags setting True, then False."""

    flags: tuple
    type: type = str
    default: object = None
    help: str | None = None
    choices: tuple | None = None


# every config key, each once
_OPTIONS = {
    "input": _Option(("--input",), help="cohort file (gate defaults to the run's test set)"),
    "schema": _Option(("--schema",), help="column-map file (key=value)"),
    "out_dir": _Option(("--out-dir",), help="directory to write the artifacts into"),
    "run_dir": _Option(("--run-dir",), help="run directory written by train"),
    "coefficients": _Option(("--coefficients",), help="override coefficient file"),
    "allow_override": _Option(("--allow-coefficient-override",), bool,
                              help="accept --coefficients that deviate from the published"),
    "seed": _Option(("--seed",), int, 0, "random seed"),
    "n": _Option(("--n",), int, 1000, "cohort size"),
    "train_fraction": _Option(("--train-fraction",), float, 0.5, "share to train on"),
    "threshold": _Option(("--threshold",), float, 0.15, "HighRisk relative dose error"),
    "kernel": _Option(("--kernel",), str, "polynomial degree=2 offset=1.0", "kernel spec"),
    "c_grid": _Option(("--c-grid",), str, "0.1,1,10,100", "comma-separated C values"),
    "cv_k": _Option(("--cv-k",), int, 10, "cross-validation folds"),
    "balance_classes": _Option(("--balance", "--no-balance"), bool, True, "class-weighted C"),
    "gate_mode": _Option(("--gate-mode",), str, "trained", "which gate to apply", GATE_MODES),
}

_COEFFICIENT_KEYS = ("coefficients", "allow_override")

# subcommand -> (help, the config keys it takes); each runs cmd_<name>
_COMMANDS = {
    "synth": ("generate a synthetic cohort", ("seed", "n", "out_dir")),
    "ingest": ("normalize a raw cohort export", ("input", "schema", "out_dir")),
    "train": ("split, impute, label, and fit the gate",
              ("seed", "input", "out_dir", "train_fraction", "threshold", "kernel", "c_grid",
               "cv_k", "balance_classes", *_COEFFICIENT_KEYS)),
    "evaluate": ("score the trained gate on the held-out test set",
                 ("run_dir", "gate_mode", "threshold", *_COEFFICIENT_KEYS)),
    "gate": ("per-patient gate decisions", ("run_dir", "input", *_COEFFICIENT_KEYS)),
    "dose": ("dose one patient given as key=value pairs", ("run_dir", *_COEFFICIENT_KEYS)),
}

DOSE_REQUIRED_FIELDS = (
    "age_decade", "height_cm", "weight_kg", "race", "enzyme", "amiodarone",
)


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the contract here says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def config_from_text(text: str) -> dict:
    """Read the key=value lines of a config file."""
    values = {}
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if sep and key == "command":  # echoed configs name their command
            continue
        if not sep or key not in _OPTIONS:
            raise UsageError(f"bad config line: {raw_line!r}")
        caster = _OPTIONS[key].type
        try:
            values[key] = _parse_bool(value) if caster is bool else caster(value)
        except ValueError:
            raise UsageError(f"bad config value: {raw_line!r}") from None
    return values


def _effective_config(args: argparse.Namespace) -> dict:
    """defaults < config file < explicit flags, for the command's keys;
    an unset key is None."""
    keys = _COMMANDS[args.command][1]
    config = {key: _OPTIONS[key].default for key in keys}
    if args.config:
        file_values = config_from_text(read_text(args.config, "config file"))
        config.update((k, v) for k, v in file_values.items() if k in keys)
    config.update((k, getattr(args, k)) for k in keys if getattr(args, k) is not None)
    return config


def _config_text(config: dict) -> str:
    # out_dir is where the echo itself lives; omitting it keeps artifacts
    # byte-identical across runs that differ only in destination
    return "".join(f"{key}={str(value).lower() if isinstance(value, bool) else value}\n"
                   for key, value in sorted(config.items())
                   if value is not None and key != "out_dir")


def _out_dir(config: dict) -> Path:
    """The output directory, which a command makes only when it writes."""
    if not config.get("out_dir"):
        raise UsageError("an output directory is required (--out-dir)")
    return Path(config["out_dir"])


def _coefficients(config: dict):
    if config.get("coefficients"):
        return load_coefficients(config["coefficients"],
                                 allow_override=bool(config.get("allow_override")))
    return DEFAULT_COEFFICIENTS


def cmd_synth(config: dict, args) -> int:
    if config["n"] < 1:
        raise UsageError(f"the cohort size must be at least 1, got {config['n']}")
    out = _out_dir(config)
    from .synth import generate_synthetic_cohort

    cohort = generate_synthetic_cohort(config["n"], config["seed"])
    out.mkdir(parents=True, exist_ok=True)
    (out / "cohort.tsv").write_text(cohort_to_text(cohort), encoding="ascii")
    (out / "config.txt").write_text(_config_text({"command": "synth", **config}),
                                    encoding="ascii")
    print(f"wrote {len(cohort)} synthetic patients to {out / 'cohort.tsv'}")
    return 0


def cmd_ingest(config: dict, args) -> int:
    if not config.get("input"):
        raise UsageError("an input file is required (--input)")
    out = _out_dir(config)
    schema = load_schema(config["schema"]) if config.get("schema") else dict(CANONICAL_SCHEMA)
    result = parse_cohort(read_text(config["input"], "input file"), schema)
    removed = filter_unbalanced(result.cohort)

    out.mkdir(parents=True, exist_ok=True)
    (out / "cohort.tsv").write_text(cohort_to_text(result.cohort), encoding="ascii")
    (out / "removed_variables.txt").write_text(
        "".join(f"{name}\n" for name in removed), encoding="ascii")
    exclusions = (
        f"data_rows {result.n_data_rows}\n"
        f"excluded_missing_dose {result.excluded_missing_dose}\n"
        f"excluded_inr {result.excluded_inr}\n"
        f"usable_rows {len(result.cohort)}\n"
    )
    (out / "exclusions.txt").write_text(exclusions, encoding="ascii")
    (out / "config.txt").write_text(_config_text({"command": "ingest", **config}),
                                    encoding="ascii")
    print(f"ingested {len(result.cohort)} of {result.n_data_rows} rows "
          f"({result.n_excluded} excluded); removed variables: "
          f"{', '.join(removed) if removed else 'none'}")
    return 0


def _cv_report_lines(selection, cv_k: int) -> list:
    lines = [f"cv_folds {cv_k}"]
    for c in sorted(selection.results):
        cv = selection.results[c]
        skipped = f" skipped_folds {cv.n_skipped}" if cv.n_skipped else ""
        lines.append(
            f"c {c:g} mean_accuracy {cv.mean_accuracy:.6f} "
            f"std {cv.std_accuracy:.6f}{skipped} "
            f"converged_folds {cv.n_converged}/{cv.n_trained}"
        )
    lines.append(f"selected_c {selection.best_c:g}")
    return lines


def _gate_config(config: dict) -> GateConfig:
    threshold = config["threshold"]
    if not 0.0 < threshold < 1.0:
        raise UsageError(f"the gate threshold must lie in (0, 1), got {threshold!r}")
    return GateConfig(threshold=threshold)


def _parse_c_grid(text: str) -> tuple:
    try:
        grid = tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError:
        raise UsageError(f"the C grid must be comma-separated numbers, got {text!r}") from None
    if not grid:
        raise UsageError("the C grid is empty")
    if not all(np.isfinite(c) and c > 0 for c in grid):
        raise UsageError(f"every C value must be finite and > 0, got {text!r}")
    if len(set(grid)) < len(grid):
        raise UsageError(f"the C grid repeats a value, got {text!r}")
    return grid


def _kernel(text: str) -> KernelSpec:
    try:
        return KernelSpec.from_text(text)
    except DomainError as exc:
        raise UsageError(f"bad kernel {text!r}: {exc}") from None


def cmd_train(config: dict, args) -> int:
    if not config.get("input"):
        raise UsageError("a normalized cohort file is required (--input)")
    gate_config = _gate_config(config)
    kernel = _kernel(config["kernel"])
    grid = _parse_c_grid(str(config["c_grid"]))
    if config["cv_k"] < 2:
        raise UsageError(f"the fold count must be at least 2, got {config['cv_k']}")
    if not 0.0 < config["train_fraction"] < 1.0:
        raise UsageError(
            f"the train fraction must lie in (0, 1), got {config['train_fraction']!r}")
    out = _out_dir(config)
    coeffs = _coefficients(config)
    base = TrainConfig(balance_classes=config["balance_classes"], seed=config["seed"])

    cohort = read_cohort(config["input"]).cohort
    train_rows, test_rows = split_cohort(cohort, config["train_fraction"], config["seed"])
    fitted = fit_gate(train_rows, kernel, grid, config["cv_k"], base, gate_config, coeffs)
    model = fitted.model

    report_lines = [
        f"train_rows {len(train_rows)}",
        f"test_rows {len(test_rows)}",
        f"train_high_risk {fitted.labels.n_high_risk}",
        f"train_safe {fitted.labels.n_safe}",
        "features " + " ".join(model.feature_names),
    ]
    if fitted.selection is None:
        best_c = grid[0]
        report_lines.append(f"selected_c {best_c:g} (single-value grid, no CV)")
    else:
        best_c = fitted.selection.best_c
        report_lines.extend(_cv_report_lines(fitted.selection, config["cv_k"]))
    factor, indefinite = fitted.factor
    if factor is not None:
        report_lines.append(f"factor rank {factor.shape[1]}")
    else:
        why = "indefinite" if indefinite else f"rank above {LOW_RANK_CAP}"
        report_lines.append(f"factor none ({why})")
    report_lines.extend([
        f"support_vectors {model.alphas.size}",
        f"converged {1 if model.converged else 0}",
        f"max_kkt_violation {model.max_kkt_violation:.17g}",
        f"dual_objective {model.dual_objective:.17g}",
    ])

    out.mkdir(parents=True, exist_ok=True)
    save_model(model, out / "model.txt")
    (out / "plan.txt").write_text(plan_to_text(fitted.plan), encoding="ascii")
    (out / "test.tsv").write_text(cohort_to_text(test_rows), encoding="ascii")
    (out / "train_report.txt").write_text("".join(f"{ln}\n" for ln in report_lines),
                                          encoding="ascii")
    (out / "config.txt").write_text(_config_text({"command": "train", **config}),
                                    encoding="ascii")
    status = "converged" if model.converged else (
        f"NOT CONVERGED (max KKT violation {model.max_kkt_violation:.3g})")
    print(f"trained on {len(train_rows)} rows, C={best_c:g}, "
          f"{model.alphas.size} support vectors, {status}")
    print(f"artifacts in {out}")
    return 0


def _evaluation_payload(report, gate_mode: str) -> dict:
    """evaluation.json's object: the report's fields, with the confusion
    counts among them."""
    fields = asdict(report)
    return {"gate_mode": gate_mode, **fields.pop("confusion"), **fields}


def _evaluation_text(report, gate_mode: str, model) -> str:
    lines = [
        f"gate_mode {gate_mode}",
        f"model kernel {model.kernel.to_text()}, support_vectors {model.alphas.size}, "
        f"converged {1 if model.converged else 0}",
        "",
        "classifier (HighRisk positive)",
        f"  accuracy    {fmt_metric(report.accuracy)}",
        f"  sensitivity {fmt_metric(report.sensitivity)}",
        f"  specificity {fmt_metric(report.specificity)}",
        f"  confusion   tp={report.confusion.tp} fp={report.confusion.fp} "
        f"tn={report.confusion.tn} fn={report.confusion.fn}",
        "",
        "dose model error (mg/week)      original   shrunken",
        f"  rmse                          {report.rmse_original:8.3f}   {report.rmse_shrunken:8.3f}",
        f"  mae                           {report.mae_original:8.3f}   {report.mae_shrunken:8.3f}",
        "",
        f"retained fraction of test set {report.shrink_ratio:.4f}",
    ]
    return "\n".join(lines) + "\n"


def _require_run_dir(config: dict) -> Path:
    run_dir = config.get("run_dir")
    if not run_dir:
        raise UsageError("a run directory from `train` is required (--run-dir)")
    path = Path(run_dir)
    if not (path / "model.txt").exists():
        raise DataError(f"{path} does not contain model.txt (run `train` first)")
    return path


def cmd_evaluate(config: dict, args) -> int:
    gate_config = _gate_config(config)
    gate_mode = config["gate_mode"]
    if gate_mode not in GATE_MODES:
        raise UsageError(f"unknown gate mode {gate_mode!r}")
    run_dir = _require_run_dir(config)
    coeffs = _coefficients(config)

    model = load_model(run_dir / "model.txt")
    plan = load_plan(run_dir / "plan.txt")
    test_rows = read_cohort(run_dir / "test.tsv").cohort
    report, _ = evaluate_gate(model, plan, test_rows, gate_mode, gate_config, coeffs)

    text = _evaluation_text(report, gate_mode, model)
    (run_dir / "evaluation.txt").write_text(text, encoding="utf-8")
    (run_dir / "evaluation.json").write_text(
        json.dumps(_evaluation_payload(report, gate_mode), sort_keys=True, indent=2) + "\n",
        encoding="ascii")
    sys.stdout.write(text)
    return 0


def cmd_gate(config: dict, args) -> int:
    run_dir = _require_run_dir(config)
    coeffs = _coefficients(config)
    model = load_model(run_dir / "model.txt")
    plan = load_plan(run_dir / "plan.txt")
    source = config.get("input") or run_dir / "test.tsv"
    imputed = apply_imputation(plan, read_cohort(source).cohort)
    scores, signs = classify_records(model, imputed)
    doses = weekly_doses(imputed, coeffs).tolist()
    labels = ["HighRisk" if sign > 0 else "SafeForModel" for sign in signs.tolist()]
    n_rows = len(imputed)
    n_safe = int(np.sum(signs < 0))

    if args.jsonl:
        # one object per patient, keys sorted as json.dumps(sort_keys=True)
        # writes them; the numbers are encoded in one json.dumps call
        rows = zip(range(1, n_rows + 1), _json_numbers([round(d, 6) for d in doses]), labels,
                   _json_numbers([round(v, 9) for v in scores.tolist()]))
        sys.stdout.write("".join(
            f'{{"decision_value": {score}, "id": {i}, "label": "{label}", '
            f'"model_version": 1, "predicted_dose_mg_week": {dose}}}\n'
            for i, dose, label, score in rows))
        print(f"safe {n_safe} of {n_rows}", file=sys.stderr)
    else:
        rows = zip(range(1, n_rows + 1), doses, labels, scores.tolist())
        lines = ["id\tpredicted_dose_mg_week\tlabel\tdecision_value",
                 *(f"{i}\t{dose:.3f}\t{label}\t{score:.6f}" for i, dose, label, score in rows),
                 f"# safe {n_safe} of {n_rows} ({100.0 * n_safe / n_rows:.1f}% retained)"]
        sys.stdout.write("".join(f"{line}\n" for line in lines))
    return 0


def _json_numbers(values: list) -> list:
    """Each number's JSON text, as json.dumps writes it (NaN included)."""
    return json.dumps(values)[1:-1].split(", ") if values else []


def patient_cohort(pairs) -> Cohort:
    """The one-row Cohort of the key=value pairs; a field left out is
    missing, for the run's plan to fill. The dose model's inputs must be
    given."""
    values = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep:
            raise UsageError(f"patient fields are key=value, got {pair!r}")
        key = key.strip()
        if key not in _PATIENT_FIELDS:
            raise UsageError(f"unknown patient field {key!r}")
        try:
            values[key] = float(_PATIENT_FIELDS[key](value.strip()))
        except ValueError:
            raise UsageError(f"cannot read patient field {pair!r}") from None
    missing = [k for k in DOSE_REQUIRED_FIELDS if k not in values]
    if missing:
        raise UsageError("missing required patient fields: " + ", ".join(missing))
    # inr and therapeutic dose are unknown at prescribing time and feed
    # neither the dose model nor the gate features; placeholders satisfy
    # the Cohort's rules only
    values.update(inr=2.5, therapeutic_dose_mg_week=1.0)
    return Cohort(np.array([values.get(name, np.nan) for name in CANONICAL_COLUMNS])[:, None])


def _parse_race_arg(text: str):
    race = _parse_race(text)
    if race is None:
        raise UsageError(f"cannot read race {text!r} (use 1/2/3 or white/black/asian)")
    return race


def _number(text: str) -> float:
    """A float field's value; "nan" names no value, so it does not read."""
    value = float(text)
    if value != value:
        raise ValueError(text)
    return value


def _code(text: str) -> float:
    """A coded field's value, read as a float so that "5.0" is the code
    5 (the Cohort's rules judge the code); only a finite value reads."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


_PATIENT_FIELDS = {
    "age_decade": _code,
    "height_cm": _number,
    "weight_kg": _number,
    "race": _parse_race_arg,
    "gender": _code,
    "target_inr": _number,
    **{name: _code for name in BINARY_COVARIATES},
}


def cmd_dose(config: dict, args) -> int:
    coeffs = _coefficients(config)
    run_dir = _require_run_dir(config)
    model = load_model(run_dir / "model.txt")
    plan = load_plan(run_dir / "plan.txt")
    patient = apply_imputation(plan, patient_cohort(args.patient))
    sqrt_dose = float(sqrt_weekly_doses(patient, coeffs)[0])
    scores, signs = classify_records(model, patient)
    label = GateLabel(int(signs[0]))
    print(f"sqrt_dose {sqrt_dose:.4f}")
    print(f"dose_mg_week {sqrt_dose * sqrt_dose:.3f}")
    if label == GateLabel.HIGH_RISK:
        print("gate HighRisk (model not recommended for this patient)")
    else:
        print("gate SafeForModel")
    print(f"decision_value {scores[0]:.6f}")
    return 0


def _add_option(parser: argparse.ArgumentParser, key: str, option: _Option):
    if option.type is not bool:
        shown = option.help if option.default is None else (
            f"{option.help} (default: {option.default})")
        parser.add_argument(*option.flags, dest=key, help=shown, choices=option.choices,
                            type=None if option.type is str else option.type)
        return
    for flag, const in zip(option.flags, (True, False)):
        parser.add_argument(flag, dest=key, action="store_const", const=const,
                            help=option.help if const else f"the opposite of {option.flags[0]}")


def build_parser() -> _Parser:
    parser = _Parser(prog="dosegate",
                     description="Gated warfarin dosing: clinical dose model "
                                 "behind a learned safety gate.")
    parser.add_argument("--version", action="version", version=f"dosegate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, keys) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        p.add_argument("--config", help="key=value config file; flags override it")
        for key in keys:
            _add_option(p, key, _OPTIONS[key])
        # looked up on each build, so a wrapper bound to the name since
        # import is the function that runs
        p.set_defaults(func=globals()[f"cmd_{command}"])
    sub.choices["gate"].add_argument("--jsonl", action="store_true",
                                     help="one JSON object per patient")
    sub.choices["dose"].add_argument("patient", nargs="*", help="key=value patient fields")
    return parser


# built by main's first call; argparse keeps no state between parses
_parser: _Parser | None = None


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(_effective_config(args), args)
    except UsageError as exc:
        print(f"dosegate {args.command}: usage error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"dosegate {args.command}: numerical error: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"dosegate {args.command}: data error: {exc}", file=sys.stderr)
        return 2
    except DosegateError as exc:
        print(f"dosegate {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
