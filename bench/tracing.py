"""Spans around the calls into each layer of the dosegate package.

The tracer wraps every public module-level function of the layer
modules and rebinds that name in every loaded dosegate module that holds
it, so calls made by the CLI and by the library modules all pass through
a wrapper. Nothing in the package changes on disk, and nothing is
wrapped unless a traced run asks for it.

Spans are kept in memory as parallel arrays (name, start, end, parent)
and written out when the run ends. A span's self time is its duration
minus the durations of its direct children; the program is
single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import statistics
import sys
import time
from array import array
from pathlib import Path

# layer -> modules; cohort and records form one layer
LAYERS = {
    "cli": ("dosegate.cli",),
    "synth": ("dosegate.synth",),
    "cohort": ("dosegate.cohort", "dosegate.records"),
    "features": ("dosegate.features",),
    "iwpc": ("dosegate.iwpc",),
    "gate": ("dosegate.gate",),
    "kernels": ("dosegate.kernels",),
    "svm": ("dosegate.svm",),
    "crossval": ("dosegate.crossval",),
    "model_io": ("dosegate.model_io",),
}

# the functions the per-layer metrics are computed from; a layer that
# lacks one is reported as missing and its metrics read 0
REQUIRED = {
    "cli": ("main", "build_parser"),
    "synth": ("generate_synthetic_cohort",),
    "cohort": ("parse_cohort", "apply_imputation", "cohort_to_text", "filter_unbalanced"),
    "features": ("feature_rows", "encode_features"),
    "iwpc": ("predict_weekly_dose",),
    "gate": ("classify_records", "label_cohort"),
    "kernels": ("kernel_matrix",),
    "svm": ("train", "decision_values"),
    "crossval": ("select_c",),
    "model_io": ("load_model", "save_model"),
}

KERNELS = ("linear", "polynomial", "sigmoid", "rbf", "anova")
C_GRID = (0.1, 1.0, 10.0, 100.0)


def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _arg(fn, args, kwargs, position: int):
    return args[position] if len(args) > position else list(_arguments(fn, args, kwargs).values())[position]


# facts attached to a span: probe(fn, args, kwargs, result) -> dict
def _probe_train(fn, args, kwargs, result):
    a = _arguments(fn, args, kwargs)
    return {"c": a["config"].c_regularization, "kernel": a["kernel"].variant,
            "converged": bool(result.converged), "kkt": float(result.max_kkt_violation)}


def _probe_kernel_matrix(fn, args, kwargs, result):
    a = _arguments(fn, args, kwargs)
    return {"kernel": a["spec"].variant, "gram": a["a"] is a["b"],
            "rows": int(result.shape[0]), "cols": int(result.shape[1])}


def _probe_scores(fn, args, kwargs, result):
    return {"rows": int(result.shape[0]), "sv": int(_arg(fn, args, kwargs, 0).alphas.size)}


def _probe_records(position):
    def probe(fn, args, kwargs, result):
        return {"rows": len(_arg(fn, args, kwargs, position))}
    return probe


def _probe_parse(fn, args, kwargs, result):
    return {"rows": int(result.n_data_rows)}


def _probe_result_rows(fn, args, kwargs, result):
    return {"rows": len(result)}


def _probe_load_model(fn, args, kwargs, result):
    return {"bytes": Path(_arg(fn, args, kwargs, 0)).stat().st_size}


PROBES = {
    "svm.train": _probe_train,
    "svm.decision_values": _probe_scores,
    "svm.decision_values_from_matrix": _probe_scores,
    "kernels.kernel_matrix": _probe_kernel_matrix,
    "cohort.parse_cohort": _probe_parse,
    "cohort.cohort_to_text": _probe_records(0),
    "features.feature_rows": _probe_records(0),
    "features.encode_features": _probe_records(0),
    "gate.classify_records": _probe_records(1),
    "gate.label_cohort": _probe_records(0),
    "synth.generate_synthetic_cohort": _probe_result_rows,
    "model_io.load_model": _probe_load_model,
}


class Tracer:
    """Span recorder for one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.facts: dict[int, dict] = {}
        self.missing: dict[str, str] = {}
        self._stack: list[int] = []

    def _wrap(self, fn, span_name: str):
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self.names)
            self.names.append(span_name)
        name_id = self._name_ids[span_name]
        probe = PROBES.get(span_name)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack, facts, clock = self._stack, self.facts, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0)
            ends.append(0)
            stack.append(index)
            began = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                starts[index] = began
                stack.pop()
            if probe is not None:
                facts[index] = probe(fn, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function of every layer module, everywhere
        a dosegate module refers to it."""
        wrappers = {}  # id(original) -> (original, wrapper)
        for layer, modules in LAYERS.items():
            found = set()
            for module_name in modules:
                try:
                    module = importlib.import_module(module_name)
                except ImportError as exc:
                    self.missing[layer] = f"cannot import {module_name}: {exc}"
                    continue
                for name, obj in vars(module).items():
                    if (name.startswith("_") or not inspect.isfunction(obj)
                            or obj.__module__ != module_name):
                        continue
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}"))
                    found.add(name)
            absent = [name for name in REQUIRED[layer] if name not in found]
            if absent and layer not in self.missing:
                self.missing[layer] = "no function " + ", ".join(absent)
        for module_name, module in list(sys.modules.items()):
            if module is None or module_name.split(".")[0] != "dosegate":
                continue
            for name, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, name, entry[1])

    def spans(self) -> list:
        """(name, start_ns, end_ns, parent, facts) per span, in call order."""
        return [(self.names[self.name[i]], self.start[i], self.end[i], self.parent[i],
                 self.facts.get(i)) for i in range(len(self.name))]

    def dump(self, path, process: str, extra: dict) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write(json.dumps({"process": process, **extra}) + "\n")
            for i, (name, start, end, parent, facts) in enumerate(self.spans()):
                record = {"id": i, "name": name, "start_ns": start, "end_ns": end,
                          "parent": parent}
                if facts:
                    record["facts"] = facts
                out.write(json.dumps(record) + "\n")


def load_spans(path) -> tuple[dict, list]:
    """Read back what Tracer.dump wrote: (header, spans)."""
    with gzip.open(path, "rt", encoding="utf-8") as src:
        header = json.loads(src.readline())
        spans = [json.loads(line) for line in src]
    return header, [(s["name"], s["start_ns"], s["end_ns"], s["parent"], s.get("facts"))
                    for s in spans]


def metric_names() -> list:
    """Every per-layer metric, as (name, unit, better)."""
    names = [
        ("cli.import_s", "s", "lower"),
        ("cli.build_parser_ms", "ms", "lower"),
        ("cli.self_ms", "ms", "lower"),
        ("synth.rows_per_s", "rows/s", "higher"),
        ("cohort.parse_rows_per_s", "rows/s", "higher"),
        ("cohort.impute_rows_per_s", "rows/s", "higher"),
        ("cohort.write_rows_per_s", "rows/s", "higher"),
        ("cohort.filter_s", "s", "lower"),
        ("features.encode_rows_per_s", "rows/s", "higher"),
        ("iwpc.dose_calls_per_row", "calls/row", "lower"),
        ("iwpc.dose_s", "s", "lower"),
        ("gate.classify_rows_per_s", "rows/s", "higher"),
        ("gate.label_rows_per_s", "rows/s", "higher"),
    ]
    names += [(f"kernels.gram_s.{k}", "s", "lower") for k in KERNELS]
    names += [
        ("kernels.cross_evals", "count", "lower"),
        ("kernels.cross_s", "s", "lower"),
        ("kernels.matrix_mb", "MB", "lower"),
    ]
    names += [(f"svm.fit_s.c{c:g}", "s", "lower") for c in C_GRID]
    names += [("svm.fits", "count", "lower"), ("svm.fits_converged", "count", "higher")]
    names += [(f"svm.fit_s.{k}", "s", "lower") for k in KERNELS]
    names += [(f"svm.max_kkt.c{c:g}", "margin", "lower") for c in C_GRID]
    names += [
        ("svm.support_vectors", "count", "lower"),
        ("svm.score_rows_per_s", "rows/s", "higher"),
        ("crossval.select_s", "s", "lower"),
        ("model_io.load_ms", "ms", "lower"),
        ("model_io.model_kb", "kB", "lower"),
        ("model_io.save_s", "s", "lower"),
    ]
    names += [(f"self_share.{layer}", "fraction", "lower") for layer in LAYERS]
    names += [
        ("trace.coverage", "fraction", "higher"),
        ("trace.missing_layers", "count", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.round_s", "s", "lower"),
    ]
    return names


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(spans: list, rounds: int, timed_s: float, setup_spans: list,
                  import_s: list, missing: dict, round_s: float) -> dict:
    """Per-layer metrics from the timed part's spans (main process) and
    the set-up processes' spans (synthesis only). Counts and total times
    are per round, so they do not depend on how many rounds a run made."""
    n = len(spans)
    layer = [s[0].split(".", 1)[0] for s in spans]
    duration = [(s[2] - s[1]) * 1e-9 for s in spans]
    covered = [0.0] * n
    children: list[list[int]] = [[] for _ in range(n)]
    for i, s in enumerate(spans):
        if s[3] >= 0:
            covered[s[3]] += duration[i]
            children[s[3]].append(i)
    self_time = [duration[i] - covered[i] for i in range(n)]

    def outer(i: int) -> bool:
        """No enclosing span of the same layer."""
        return spans[i][3] < 0 or layer[spans[i][3]] != layer[i]

    def named(*names):
        return [i for i, s in enumerate(spans) if s[0] in names]

    def total(indices) -> float:
        return float(sum(duration[i] for i in indices))

    def rows(indices) -> int:
        return sum(spans[i][4]["rows"] for i in indices if spans[i][4])

    m = {}
    m["cli.import_s"] = _median(import_s)
    m["cli.build_parser_ms"] = _median([duration[i] * 1e3 for i in named("cli.build_parser")])

    def cli_self(i: int) -> float:
        own = 0.0 if spans[i][0] == "cli.build_parser" else self_time[i]
        return own + sum(cli_self(j) for j in children[i] if layer[j] == "cli")

    m["cli.self_ms"] = _median([cli_self(i) * 1e3 for i in named("cli.main")])

    synth = [s for s in setup_spans if s[0] == "synth.generate_synthetic_cohort"]
    m["synth.rows_per_s"] = _rate(sum(s[4]["rows"] for s in synth if s[4]),
                                  sum((s[2] - s[1]) * 1e-9 for s in synth))

    parse = named("cohort.parse_cohort")
    m["cohort.parse_rows_per_s"] = _rate(rows(parse), total(parse))
    impute = [i for i in named("cohort.apply_imputation") if outer(i)]
    m["cohort.impute_rows_per_s"] = _rate(len(impute), total(impute))
    write = named("cohort.cohort_to_text")
    m["cohort.write_rows_per_s"] = _rate(rows(write), total(write))
    m["cohort.filter_s"] = total([i for i in named("cohort.filter_unbalanced") if outer(i)]) / rounds

    encode = [i for i in named("features.feature_rows", "features.encode_features") if outer(i)]
    m["features.encode_rows_per_s"] = _rate(rows(encode), total(encode))

    iwpc = [i for i in range(n) if layer[i] == "iwpc" and outer(i)
            and spans[i][0] in ("iwpc.predict_weekly_dose", "iwpc.predict_sqrt_weekly_dose")]
    classify = named("gate.classify_records")
    m["iwpc.dose_calls_per_row"] = _rate(len(iwpc), rows(classify))
    m["iwpc.dose_s"] = total(iwpc) / rounds
    m["gate.classify_rows_per_s"] = _rate(rows(classify), total(classify))
    label = named("gate.label_cohort")
    m["gate.label_rows_per_s"] = _rate(rows(label), total(label))

    kernel_calls = [i for i in named("kernels.kernel_matrix") if spans[i][4]]
    for k in KERNELS:
        m[f"kernels.gram_s.{k}"] = total([i for i in kernel_calls if spans[i][4]["gram"]
                                          and spans[i][4]["kernel"] == k]) / rounds
    cross = [i for i in kernel_calls if not spans[i][4]["gram"]]
    m["kernels.cross_evals"] = sum(spans[i][4]["rows"] * spans[i][4]["cols"]
                                   for i in cross) / rounds
    m["kernels.cross_s"] = total(cross) / rounds
    m["kernels.matrix_mb"] = max([spans[i][4]["rows"] * spans[i][4]["cols"] * 8 / 1e6
                                  for i in kernel_calls], default=0.0)

    fits = [i for i in named("svm.train") if spans[i][4]]
    for c in C_GRID:
        at_c = [i for i in fits if spans[i][4]["c"] == c]
        m[f"svm.fit_s.c{c:g}"] = _median([duration[i] for i in at_c])
    m["svm.fits"] = len(fits) / rounds
    m["svm.fits_converged"] = sum(1 for i in fits if spans[i][4]["converged"]) / rounds
    for k in KERNELS:
        m[f"svm.fit_s.{k}"] = _median([duration[i] for i in fits if spans[i][4]["kernel"] == k])
    for c in C_GRID:
        m[f"svm.max_kkt.c{c:g}"] = _median([spans[i][4]["kkt"] for i in fits
                                             if spans[i][4]["c"] == c])
    scoring = [i for i in named("svm.decision_values", "svm.decision_values_from_matrix")
               if outer(i) and spans[i][4]]
    m["svm.support_vectors"] = _median([spans[i][4]["sv"] for i in scoring])
    m["svm.score_rows_per_s"] = _rate(rows(scoring), total(scoring))
    m["crossval.select_s"] = total(named("crossval.select_c")) / rounds
    loads = named("model_io.load_model")
    m["model_io.load_ms"] = _median([duration[i] * 1e3 for i in loads])
    m["model_io.model_kb"] = max([spans[i][4]["bytes"] / 1e3 for i in loads if spans[i][4]],
                                 default=0.0)
    m["model_io.save_s"] = total(named("model_io.save_model")) / rounds

    for name in LAYERS:
        m[f"self_share.{name}"] = _rate(sum(self_time[i] for i in range(n) if layer[i] == name),
                                        timed_s)
    m["trace.coverage"] = sum(m[f"self_share.{name}"] for name in LAYERS)
    m["trace.missing_layers"] = float(len(missing))
    m["trace.spans"] = n / rounds
    m["trace.round_s"] = round_s

    for name in missing:  # a missing layer's numbers would mislead
        for key in m:
            if key.startswith(f"{name}.") or key == f"self_share.{name}":
                m[key] = 0.0
    return m
