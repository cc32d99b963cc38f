"""Computations made apart from the program, for checking its outputs.

Nothing here imports dosegate. The dose formula is written out from the
published IWPC clinical algorithm, the five kernels from their textbook
definitions, and the readers follow docs/formats.md.
"""

from __future__ import annotations

import math

import numpy as np

# IWPC clinical dosing algorithm (NEJM 2009), sqrt(mg/week) scale
IWPC_INTERCEPT = 4.0376
IWPC_AGE_DECADE = -0.2546
IWPC_HEIGHT_CM = 0.0118
IWPC_WEIGHT_KG = 0.0134
IWPC_ASIAN = -0.6752
IWPC_BLACK = 0.4060
IWPC_RACE_MISSING = 0.0443
IWPC_ENZYME = 1.2799
IWPC_AMIODARONE = -0.5695

WHITE, BLACK, ASIAN = 1, 2, 3

BINARY_FLAGS = (
    "amiodarone", "aspirin", "atorvastatin", "chf", "carbamazepine",
    "current_smoker", "dvt_pe", "diabetes", "enzyme", "fluvastatin",
    "lovastatin", "macrolide", "phenytoin", "pravastatin", "rifampin",
    "rosuvastatin", "simvastatin", "sulfonamide", "valve_replacement",
)
MEAN_FILLED = ("height_cm", "weight_kg", "target_inr")
DOSE_INPUTS = ("age_decade", "height_cm", "weight_kg", "race", "enzyme", "amiodarone")
KKT_TOLERANCE = 1e-3  # the trainer's documented default


def iwpc_weekly_dose(age_decade, height_cm, weight_kg, race, enzyme, amiodarone) -> float:
    """Weekly warfarin dose in mg: the square of the sqrt-scale predictor."""
    root = (IWPC_INTERCEPT + IWPC_AGE_DECADE * age_decade
            + IWPC_HEIGHT_CM * height_cm + IWPC_WEIGHT_KG * weight_kg
            + IWPC_ENZYME * enzyme + IWPC_AMIODARONE * amiodarone)
    if race is None:
        root += IWPC_RACE_MISSING
    elif race == ASIAN:
        root += IWPC_ASIAN
    elif race == BLACK:
        root += IWPC_BLACK
    return root * root


# --- kernels -------------------------------------------------------------

def _pairwise(a, b, per_dim, chunk_cells=2_000_000):
    """sum_k per_dim(a[i, k] - b[j, k]) over row pairs, in row chunks."""
    out = np.empty((a.shape[0], b.shape[0]))
    step = max(1, chunk_cells // max(1, b.shape[0] * a.shape[1]))
    for lo in range(0, a.shape[0], step):
        diff = a[lo:lo + step, None, :] - b[None, :, :]
        out[lo:lo + step] = per_dim(diff).sum(axis=2)
    return out


def kernel(params: dict, a, b) -> np.ndarray:
    """Kernel values between the rows of ``a`` and ``b``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    variant = params["variant"]
    if variant == "linear":
        return a @ b.T
    if variant == "polynomial":
        return (a @ b.T + params.get("offset", 1.0)) ** int(params.get("degree", 2))
    if variant == "sigmoid":
        return np.tanh(a @ b.T + params.get("theta", 0.0))
    if variant == "rbf":
        delta = params.get("delta", 1.0)
        return np.exp(-_pairwise(a, b, lambda d: d * d) / (2.0 * delta * delta))
    if variant == "anova":
        sigma, power = params.get("sigma", 1.0), int(params.get("d", 1))
        dims = int(params.get("n_dims", a.shape[1]))
        return _pairwise(a[:, :dims], b[:, :dims],
                         lambda d: np.exp(-sigma * d * d) ** power)
    raise ValueError(f"unknown kernel {variant!r}")


def parse_kernel_line(text: str) -> dict:
    """``polynomial degree=2 offset=1.0`` -> {'variant': ..., 'degree': 2.0, ...}."""
    tokens = text.split()
    params = {"variant": tokens[0]}
    for token in tokens[1:]:
        key, _, value = token.partition("=")
        params[key] = float(value)
    return params


# --- readers -------------------------------------------------------------

_MODEL_HEADER = ("kernel", "features", "means", "scales", "bias", "converged",
                 "max_kkt_violation", "dual_objective", "support_vectors")


def read_model(text: str) -> dict:
    """model.txt: magic line, nine header lines in fixed order, one line
    per support vector ``<label> <alpha> <coordinates...>``."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if lines[0].split() != ["dosegate-svm", "1"]:
        raise ValueError(f"bad magic line {lines[0]!r}")
    head = {}
    for key, line in zip(_MODEL_HEADER, lines[1:10]):
        name, _, rest = line.partition(" ")
        if name != key:
            raise ValueError(f"expected {key!r} line, found {line!r}")
        head[key] = rest
    features = head["features"].split()
    body = [ln.split() for ln in lines[10:]]
    n_sv = int(head["support_vectors"])
    if len(body) != n_sv or any(len(parts) != 2 + len(features) for parts in body):
        raise ValueError("support vector lines do not match the header")
    return {
        "kernel": parse_kernel_line(head["kernel"]),
        "features": features,
        "means": np.array([float(v) for v in head["means"].split()]),
        "scales": np.array([float(v) for v in head["scales"].split()]),
        "bias": float(head["bias"]),
        "converged": head["converged"] == "1",
        "max_kkt_violation": float(head["max_kkt_violation"]),
        "dual_objective": float(head["dual_objective"]),
        "labels": np.array([float(p[0]) for p in body]),
        "alphas": np.array([float(p[1]) for p in body]),
        "vectors": np.array([[float(v) for v in p[2:]] for p in body]).reshape(n_sv, len(features)),
    }


def read_plan(text: str) -> dict:
    """plan.txt: ``mean <name> <value>`` and ``mode <name> <code>`` lines."""
    fill = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[0] == "mean":
            fill[parts[1]] = float(parts[2])
        elif len(parts) == 3 and parts[0] == "mode":
            fill[parts[1]] = int(parts[2])
    return fill


def read_cohort(text: str) -> list:
    """Canonical cohort.tsv rows as dicts; ``NA`` becomes None."""
    lines = text.splitlines()
    header = lines[0].split("\t")
    rows = []
    for line in lines[1:]:
        if not line.strip():
            continue
        cells = line.split("\t")
        rows.append({name: (None if cell == "NA" else float(cell))
                     for name, cell in zip(header, cells)})
    return rows


def read_key_values(text: str) -> dict:
    """``key value...`` lines, as in train_report.txt and exclusions.txt."""
    out = {}
    for line in text.splitlines():
        key, _, value = line.partition(" ")
        out.setdefault(key, value)
    return out


# --- patients ------------------------------------------------------------

def impute(row: dict, fill: dict) -> dict:
    return {k: (fill[k] if v is None and k in fill else v) for k, v in row.items()}


def feature_value(patient: dict, name: str) -> float:
    if name == "race_african_american":
        return float(patient["race"] == BLACK)
    if name == "race_asian":
        return float(patient["race"] == ASIAN)
    return float(patient[name])


def decision_values(model: dict, patients) -> np.ndarray:
    """sum_i alpha_i z_i K(sv_i, (x - mean) / scale) + bias, per patient."""
    raw = np.array([[feature_value(p, f) for f in model["features"]] for p in patients])
    raw = raw.reshape(len(patients), len(model["features"]))
    scaled = (raw - model["means"]) / model["scales"]
    weights = model["alphas"] * model["labels"]
    out = np.empty(len(patients))
    for lo in range(0, len(patients), 512):
        out[lo:lo + 512] = kernel(model["kernel"], scaled[lo:lo + 512], model["vectors"]) @ weights
    return out + model["bias"]


def dual_objective(model: dict) -> float:
    weights = model["alphas"] * model["labels"]
    gram = kernel(model["kernel"], model["vectors"], model["vectors"])
    return float(model["alphas"].sum() - 0.5 * weights @ gram @ weights)


def rmse(actual, predicted) -> float:
    return math.sqrt(sum((a - p) ** 2 for a, p in zip(actual, predicted)) / len(actual))
