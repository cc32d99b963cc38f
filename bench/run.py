"""dosegate benchmark: runs one named workload in this fresh process.

    python3 bench/run.py --workload paper_score --seed 1 --seconds 30 --trace 0

The BLAS and OpenMP thread counts are pinned to one before numpy is
imported. Set-up runs at least three times, each in a fresh process,
half of the repeats before the timed part and half after it, and
`setup_s` is the median. The timed part then calls `dosegate.cli.main`
in this process, round after round, until the next round would overrun
--seconds (and at least the workload's minimum number of rounds). Every
call's output is checked afterwards; a call whose check fails counts as
failed. With --trace 1 the calls into each layer are recorded as spans
and the per-layer metrics are reported instead of the end-to-end ones.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import os

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _name in THREAD_VARIABLES:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"
# set-up repeats: at least 3, and as many as make about 8 s of set-up
# (at most 16), so that a cheap set-up still gives a steady median
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_MIN_SECONDS = 3, 16, 8.0

END_TO_END = (("setup_s", "s"), ("round_ref_s", "ref-s"), ("peak_rss_mb", "MB"))

# The machine's speed is shared with other work and drifts over minutes,
# which moves every time a run measures. A fixed pure-Python loop, timed
# between set-up repeats and between calls, tracks that drift; round_ref_s
# is the round time scaled to the speed at which the loop takes
# CALIBRATION_REFERENCE_S (its median on the reference machine).
CALIBRATION_REFERENCE_S = 0.0308
CALIBRATION_GAP_S = 1.0  # at most one sample per second of calls


class SetupFailed(Exception):
    pass


def _calibration_sample() -> float:
    """Seconds the fixed loop takes now."""
    began = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    return time.perf_counter() - began


def _import_cli():
    """Import dosegate.cli from this checkout; returns (module, seconds)."""
    sys.path.insert(0, str(SRC))
    began = time.perf_counter()
    from dosegate import cli
    return cli, time.perf_counter() - began


def _call(cli, argv) -> tuple:
    """One in-process CLI call: (seconds, exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        began = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
        seconds = time.perf_counter() - began
    return seconds, code, out.getvalue(), err.getvalue()


def setup_main(workload_name: str, seed: int, trace: bool, spans_out: str) -> int:
    """Set-up mode: run the workload's set-up commands in this directory."""
    cli, import_s = _import_cli()
    from workloads import WORKLOADS

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
    for argv in WORKLOADS[workload_name].setup_commands(seed):
        _, code, _, err = _call(cli, argv)
        if code != 0:
            print(f"set-up command {argv} exited {code}: {err}", file=sys.stderr)
            return 3
    if tracer is not None:
        tracer.dump(spans_out, "setup", {"import_s": import_s})
    return 0


def _tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _quantile(values, q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def run(args) -> int:
    if not (SRC / "dosegate" / "cli.py").is_file():
        print(f"no dosegate sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    cli, import_s = _import_cli()  # before anything else imports numpy
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir = RUNS / label
    work = run_dir / "work"
    work.mkdir(parents=True)
    try:
        return _run_in(args, cli, import_s, workload, run_dir, work)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)


def _run_in(args, cli, import_s, workload, run_dir: Path, work: Path) -> int:
    trace = args.trace == 1
    setup_digests = set()
    calibration = []

    def set_up(r: int) -> float:
        """Set-up repeat ``r`` in a fresh process and its own directory;
        the timed part reads the first one's."""
        target = work / f"s{r}"
        target.mkdir()
        command = [sys.executable, str(Path(__file__).resolve()), "--setup-for", workload.name,
                   "--seed", str(args.seed), "--trace", str(args.trace),
                   "--spans-out", str(run_dir / f"setup{r}.spans.json.gz")]
        began = time.perf_counter()
        done = subprocess.run(command, cwd=target, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        seconds = time.perf_counter() - began
        if done.returncode != 0:
            raise SetupFailed(f"set-up failed ({done.returncode}): {done.stderr}")
        setup_digests.add(_tree_digest(target))
        if r > 0:
            shutil.rmtree(target)
        calibration.append(_calibration_sample())
        return seconds

    # the first half of the repeats before the timed part, the rest after
    # it, so that their median is taken over the whole run like the rounds
    try:
        setup_times = [set_up(0)]
        repeats = min(SETUP_MAX_REPEATS,
                      max(SETUP_MIN_REPEATS, math.ceil(SETUP_MIN_SECONDS / setup_times[0])))
        setup_times += [set_up(r) for r in range(1, (repeats + 1) // 2)]
    except SetupFailed as exc:
        print(exc, file=sys.stderr)
        return 3

    os.chdir(work)
    tracer = None
    if trace:  # rebinds cli.main and every layer function to a wrapper
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    workload.prepare(args.seed, work)
    setup_faults = workload.setup_check(work)

    # timed part
    records = []  # (op, seconds, exit code, digest)
    first_out, first_digest = {}, {}
    round_times, round_calls = [], []
    first_op = {}
    began = time.perf_counter()
    calibration.append(_calibration_sample())
    sampled = time.perf_counter()
    while True:
        calls = []
        for op in workload.round_ops(args.seed):
            seconds, code, out, err = _call(cli, op.argv)
            if time.perf_counter() - sampled >= CALIBRATION_GAP_S:
                calibration.append(_calibration_sample())
                sampled = time.perf_counter()
            calls.append(seconds)
            digest = hashlib.sha256((out + "\0" + err).encode())
            for relative in op.outputs:
                path = work / relative
                digest.update(path.read_bytes() if path.is_file() else b"\0missing")
            digest = digest.hexdigest()
            first_op.setdefault(op.key, op)
            first_out.setdefault(op.key, out)
            first_digest.setdefault(op.key, digest)
            records.append((op, seconds, code, digest))
        round_times.append(sum(calls))
        round_calls.append(calls)
        elapsed = time.perf_counter() - began
        if len(round_calls) >= workload.min_rounds and elapsed + statistics.median(round_times) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calibration.append(_calibration_sample())
    try:
        setup_times += [set_up(r) for r in range(len(setup_times), repeats)]
    except SetupFailed as exc:
        print(exc, file=sys.stderr)
        return 3
    if len(setup_digests) != 1:
        setup_faults.append("the set-up repeats wrote different files")

    # checks, once per distinct call; repeats must match it byte for byte
    faults = {}
    for op in first_op.values():
        try:
            faults[op.key] = workload.check(op, first_out[op.key], work, first_out)
        except Exception as exc:  # output a check cannot read is a failed call
            faults[op.key] = [f"check raised {exc!r}"]
    failed = 0
    failures = []
    for op, _, code, digest in records:
        problem = []
        if code != 0:
            problem.append(f"exit code {code}")
        if digest != first_digest[op.key]:
            problem.append("output differs from the same call's first output")
        problem += faults[op.key]
        if problem:
            failed += 1
            if len(failures) < 10:
                failures.append(f"{op.kind} {op.key}: {'; '.join(problem[:3])}")

    setup_digest = setup_digests.pop()
    artifacts = hashlib.sha256("".join(
        f"{k}={first_digest[k]}\n" for k in sorted(first_digest)).encode()
        + setup_digest.encode()).hexdigest()

    typical_round = _typical_round(round_calls)
    calibration_s = statistics.median(calibration)
    stage = {"round_s": (typical_round, "s"), "calibration_ms": (calibration_s * 1e3, "ms"),
             **_stage_metrics(records)}
    end_to_end = {"setup_s": statistics.median(setup_times),
                  "round_ref_s": typical_round * CALIBRATION_REFERENCE_S / calibration_s,
                  "peak_rss_mb": peak_rss_mb}

    if trace:
        from tracing import layer_metrics, load_spans, metric_names
        setup_spans, setup_imports = [], []
        for r in range(len(setup_times)):
            header, spans = load_spans(run_dir / f"setup{r}.spans.json.gz")
            setup_spans += spans
            setup_imports.append(header["import_s"])
        layer = layer_metrics(tracer.spans(), len(round_times), sum(round_times), setup_spans,
                              setup_imports + [import_s], tracer.missing, typical_round)
        tracer.dump(run_dir / "timed.spans.json.gz", "timed",
                    {"import_s": import_s, "missing": tracer.missing})
        for name, reason in tracer.missing.items():
            print(f"trace: layer {name} missing ({reason})")
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit, _ in metric_names()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END}

    correct = not setup_faults
    result = {"correct": correct, "attempted": len(records), "failed": failed,
              "metrics": metrics}
    summary = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "rounds": len(round_times),
               "round_times_s": round_times, "call_times_s": round_calls,
               "setup_times_s": setup_times, "calibration_s": calibration,
               "import_s": import_s, "end_to_end": end_to_end, "stage": stage,
               "artifacts_sha256": artifacts, "setup_digest": setup_digest,
               "call_digests": first_digest, "setup_faults": setup_faults,
               "failures": failures, "result": result}
    (run_dir / "result.json").write_text(json.dumps(summary, indent=1) + "\n")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"rounds {len(round_times)}  calls {len(records)}  failed {failed}")
    for name, unit in END_TO_END:
        print(f"  {name:<20} {end_to_end[name]:12.4f} {unit}")
    for name, (value, unit) in stage.items():
        print(f"  {name:<20} {value:12.4f} {unit}  (stage)")
    for line in setup_faults + failures:
        print(f"  FAULT {line}")
    print(f"  artifacts {artifacts}")
    print(f"  result {(run_dir / 'result.json').relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


def _typical_round(round_calls) -> float:
    """Each call's median time over the rounds, summed over one round.

    Every round makes the same calls, so a burst of other work on the
    machine that slows part of one round moves that round's sum but not
    the calls' medians."""
    return float(sum(statistics.median(times) for times in zip(*round_calls)))


def _stage_metrics(records) -> dict:
    """Per-stage figures for the human summary (not bounded)."""
    by_kind = {}
    for op, seconds, _, _ in records:
        by_kind.setdefault(op.kind, []).append((op, seconds))
    stage = {}
    for kind in ("ingest", "gate"):
        if kind in by_kind:
            rows = sum(op.rows for op, _ in by_kind[kind])
            stage[f"{kind}_rows_per_s"] = (rows / sum(s for _, s in by_kind[kind]), "rows/s")
    if "evaluate" in by_kind:
        stage["evaluate_s"] = (statistics.median(s for _, s in by_kind["evaluate"]), "s")
    if "dose" in by_kind:
        times = [s * 1e3 for _, s in by_kind["dose"]]
        stage["dose_p50_ms"] = (statistics.median(times), "ms")
        stage["dose_p99_ms"] = (_quantile(times, 0.99), "ms")
        stage["dose_calls"] = (float(len(times)), "count")
    return stage


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("cv_train", "kernel_sweep", "paper_score"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-for", dest="setup_for", help=argparse.SUPPRESS)
    parser.add_argument("--spans-out", dest="spans_out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_for:
        sys.path.append(str(BENCH))
        return setup_main(args.setup_for, args.seed, args.trace == 1, args.spans_out)
    if not args.workload:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
