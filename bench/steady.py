"""Steadiness check: run each workload once per seed, report each
end-to-end metric's median, quartiles and spread against its bound.

    python3 bench/steady.py --seeds 1-10
    python3 bench/steady.py --seeds 11-20 --compare bench/runs/steady-<first>.json
    python3 bench/steady.py --seeds 1 --trace   # one traced run per workload too

The spread is (Q3 - Q1) / median with statistics.quantiles(values, n=4).
Every spread should stay within its bound, and below a third of it for
comfort; with --compare, no median may be worse than
the earlier set's by more than the bound, and the share of failed calls
must be the same. --trace adds a traced run per workload and seed, and
reports the tracing overhead (traced round time over untraced) and
whether the artifacts of the two runs are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def _run(config: dict, workload: str, seed: int, trace: int) -> dict:
    command = [*config["command"], "--workload", workload, "--seed", str(seed),
               "--seconds", str(config["run_seconds"]), "--trace", str(trace)]
    began = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    wall = time.perf_counter() - began
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    summary = next(line.split()[1] for line in lines if line.strip().startswith("result "))
    summary = json.loads((ROOT / summary).read_text())
    return {"wall_s": wall, "round_s": summary["stage"]["round_s"][0],
            "setup_digest": summary["setup_digest"],
            "call_digests": summary["call_digests"], **json.loads(lines[-1])}


def _same_artifacts(a: dict, b: dict) -> bool:
    """Byte-identical set-up and identical output of every call."""
    return a["setup_digest"] == b["setup_digest"] and a["call_digests"] == b["call_digests"]


def _summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--compare", default=None, help="an earlier summary file")
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in config["workloads"]]
    seeds = _seeds(args.seeds)
    runs = {w: [] for w in workloads}
    traced = {w: [] for w in workloads}
    for seed in seeds:  # seed-major, so drift in machine speed hits every workload
        for workload in workloads:
            runs[workload].append(_run(config, workload, seed, 0))
            if args.trace:
                traced[workload].append(_run(config, workload, seed, 1))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in runs[workload][-1]["metrics"].items()),
                flush=True)

    bounds = {m["name"]: m for m in config["end_to_end"]}
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else None
    report = {"seeds": seeds, "run_seconds": config["run_seconds"], "workloads": {}}
    ok = True
    print(f"\n{'workload':<13} {'metric':<12} {'median':>10} {'Q1':>10} {'Q3':>10} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for workload in workloads:
        entry = {"failed_share": [r["failed"] / r["attempted"] for r in runs[workload]],
                 "wall_s": [r["wall_s"] for r in runs[workload]], "metrics": {}}
        for name, spec in bounds.items():
            stats = _summary([r["metrics"][name]["value"] for r in runs[workload]])
            entry["metrics"][name] = stats
            verdict = []
            if stats["spread"] > spec["bound"]:
                verdict.append("SPREAD OVER BOUND")
                ok = False
            elif stats["spread"] > spec["bound"] / 3:
                verdict.append("spread over a third of bound")
            if earlier is not None:
                before = earlier["workloads"][workload]["metrics"][name]["median"]
                change = (stats["median"] - before) / before
                worse = change if spec["better"] == "lower" else -change
                verdict.append(f"median {change:+.1%} vs earlier")
                if worse > spec["bound"]:
                    verdict.append("WORSE THAN BOUND")
                    ok = False
            print(f"{workload:<13} {name:<12} {stats['median']:10.4f} {stats['q1']:10.4f} "
                  f"{stats['q3']:10.4f} {stats['spread']:7.3f} {spec['bound']:6.2f}  "
                  f"{'; '.join(verdict) or 'ok'}")
        if earlier is not None and (set(entry["failed_share"])
                                    != set(earlier["workloads"][workload]["failed_share"])):
            print(f"{workload}: failed share differs from the earlier set")
            ok = False
        if args.trace:
            pairs = list(zip(runs[workload], traced[workload]))
            entry["trace_overhead"] = [t["metrics"]["trace.round_s"]["value"] / u["round_s"]
                                       for u, t in pairs]
            entry["trace_wall_ratio"] = [t["wall_s"] / u["wall_s"] for u, t in pairs]
            entry["artifacts_identical"] = all(_same_artifacts(u, t) for u, t in pairs)
            entry["traced_metrics"] = [t["metrics"] for t in traced[workload]]
            print(f"{workload:<13} traced/untraced round time "
                  f"{statistics.median(entry['trace_overhead']):.3f}, wall "
                  f"{statistics.median(entry['trace_wall_ratio']):.3f}; artifacts "
                  f"{'identical' if entry['artifacts_identical'] else 'DIFFER'}")
            ok = ok and entry["artifacts_identical"]
        report["workloads"][workload] = entry
    out = BENCH / "runs" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"\nsummary in {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
