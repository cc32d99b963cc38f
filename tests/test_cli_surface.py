"""The command-line surface: every subcommand's options, the echoed
config.txt, the --config round trip and --help.

The option table below is written out by hand, so a change to any flag,
config key, default or choice shows here before it reaches a user.
"""

import argparse
import shutil
from pathlib import Path

import pytest

from dosegate.cli import build_parser, main

from helpers import CANONICAL_SCHEMA_FILE

# (option strings, dest, default, choices, const, nargs, type, action)
_RUN_DIR = (("--run-dir",), "run_dir", None, None, None, None, None, "_StoreAction")
_INPUT = (("--input",), "input", None, None, None, None, None, "_StoreAction")
_OUT_DIR = (("--out-dir",), "out_dir", None, None, None, None, None, "_StoreAction")
_SEED = (("--seed",), "seed", None, None, None, None, "int", "_StoreAction")
_THRESHOLD = (("--threshold",), "threshold", None, None, None, None, "float", "_StoreAction")
_COEFFICIENTS = (
    (("--coefficients",), "coefficients", None, None, None, None, None, "_StoreAction"),
    (("--allow-coefficient-override",), "allow_override", None, None, True, 0, None,
     "_StoreConstAction"),
)

SURFACE = {
    "synth": (
        _SEED,
        (("--n",), "n", None, None, None, None, "int", "_StoreAction"),
        _OUT_DIR,
    ),
    "ingest": (
        _INPUT,
        (("--schema",), "schema", None, None, None, None, None, "_StoreAction"),
        _OUT_DIR,
    ),
    "train": (
        _SEED, _INPUT, _OUT_DIR,
        (("--train-fraction",), "train_fraction", None, None, None, None, "float",
         "_StoreAction"),
        _THRESHOLD,
        (("--kernel",), "kernel", None, None, None, None, None, "_StoreAction"),
        (("--c-grid",), "c_grid", None, None, None, None, None, "_StoreAction"),
        (("--cv-k",), "cv_k", None, None, None, None, "int", "_StoreAction"),
        (("--balance",), "balance_classes", None, None, True, 0, None, "_StoreConstAction"),
        (("--no-balance",), "balance_classes", None, None, False, 0, None,
         "_StoreConstAction"),
        *_COEFFICIENTS,
    ),
    "evaluate": (
        _RUN_DIR,
        (("--gate-mode",), "gate_mode", None, ("trained", "identity", "oracle"), None, None,
         None, "_StoreAction"),
        _THRESHOLD,
        *_COEFFICIENTS,
    ),
    "gate": (
        _RUN_DIR, _INPUT,
        (("--jsonl",), "jsonl", False, None, True, 0, None, "_StoreTrueAction"),
        *_COEFFICIENTS,
    ),
    "dose": (
        _RUN_DIR,
        *_COEFFICIENTS,
        ((), "patient", None, None, None, "*", None, "_StoreAction"),
    ),
}


def _subparsers(parser):
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _describe(action):
    return (tuple(action.option_strings), action.dest, action.default,
            tuple(action.choices) if action.choices is not None else None,
            action.const, action.nargs, getattr(action.type, "__name__", None),
            type(action).__name__)


def test_top_level_takes_version_and_a_subcommand():
    parser = build_parser()
    assert sorted((tuple(a.option_strings), a.dest) for a in parser._actions) == [
        ((), "command"), (("--version",), "version"), (("-h", "--help"), "help")]
    assert sorted(_subparsers(parser)) == sorted(SURFACE)


@pytest.mark.parametrize("command", sorted(SURFACE))
def test_subcommand_options_are_pinned(command):
    sub = _subparsers(build_parser())[command]
    described = sorted((_describe(a) for a in sub._actions
                        if a.dest not in ("help", "config")), key=repr)
    assert described == sorted(SURFACE[command], key=repr)
    config = [a for a in sub._actions if a.dest == "config"]
    assert [(tuple(a.option_strings), a.default, type(a).__name__) for a in config] == [
        (("--config",), None, "_StoreAction")]


@pytest.mark.parametrize("argv", [[], *([name] for name in sorted(SURFACE))],
                         ids=["top", *sorted(SURFACE)])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--help"])
    assert exc.value.code == 0
    assert "usage: dosegate" in capsys.readouterr().out


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    """A directory holding a 60-row synthetic cohort; relative paths in
    the echoed configs keep their text fixed."""
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--n", "60", "--seed", "4", "--out-dir", "synth"]) == 0
    return tmp_path


def test_synth_config_text(workdir):
    Path("synth.cfg").write_text("n=40\nseed=3\n", encoding="ascii")
    assert main(["synth", "--config", "synth.cfg", "--seed", "5", "--out-dir", "o"]) == 0
    assert Path("o/config.txt").read_text() == "command=synth\nn=40\nseed=5\n"


def test_ingest_config_text(workdir):
    shutil.copy(CANONICAL_SCHEMA_FILE, "schema.txt")
    Path("ingest.cfg").write_text("schema=schema.txt\ninput=elsewhere.tsv\n",
                                  encoding="ascii")
    assert main(["ingest", "--config", "ingest.cfg", "--input", "synth/cohort.tsv",
                 "--out-dir", "o"]) == 0
    assert Path("o/config.txt").read_text() == (
        "command=ingest\ninput=synth/cohort.tsv\nschema=schema.txt\n")


def test_train_config_text(workdir):
    # command= is ignored, and gate_mode and n belong to other commands
    Path("train.cfg").write_text(
        "command=synth\nbalance_classes=true\nkernel=linear\ncv_k=3\nseed=9\n"
        "gate_mode=oracle\nn=5\n", encoding="ascii")
    assert main(["train", "--config", "train.cfg", "--input", "synth/cohort.tsv",
                 "--out-dir", "o", "--seed", "2", "--c-grid", "1", "--threshold", "0.2",
                 "--no-balance"]) == 0
    assert Path("o/config.txt").read_text() == (
        "balance_classes=false\nc_grid=1\ncommand=train\ncv_k=3\n"
        "input=synth/cohort.tsv\nkernel=linear\nseed=2\nthreshold=0.2\n"
        "train_fraction=0.5\n")


@pytest.mark.parametrize("command, argv, artifacts", [
    ("ingest", ["--input", "synth/cohort.tsv", "--schema", "schema.txt"],
     ("cohort.tsv", "exclusions.txt", "removed_variables.txt", "config.txt")),
    ("train", ["--input", "synth/cohort.tsv", "--seed", "6", "--c-grid", "1",
               "--kernel", "linear", "--train-fraction", "0.6", "--no-balance"],
     ("model.txt", "plan.txt", "test.tsv", "train_report.txt", "config.txt")),
])
def test_echoed_config_round_trips(workdir, command, argv, artifacts):
    shutil.copy(CANONICAL_SCHEMA_FILE, "schema.txt")
    assert main([command, *argv, "--out-dir", "a"]) == 0
    assert main([command, "--config", "a/config.txt", "--out-dir", "b"]) == 0
    for name in artifacts:
        assert Path("a", name).read_bytes() == Path("b", name).read_bytes(), name
