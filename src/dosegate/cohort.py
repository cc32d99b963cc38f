"""Cohort ingestion: parse, filter, impute, split, serialize.

Input is delimited text (tab by default, comma fallback) with a header
row, mapped onto canonical field names by a schema. Per-cell problems
degrade to missing values; row-level problems (no usable therapeutic
dose, INR outside the [2,3] inclusion window) exclude the row and are
counted, never silent.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    DegenerateSplitError,
    DomainError,
    EmptyCohortError,
    PlanIncompleteError,
    SchemaError,
    UnimputableVariableError,
)
from .records import (
    AGE_DECADE_RANGE,
    BINARY_COVARIATES,
    ENZYME_COMPONENTS,
    HEIGHT_BOUNDS_CM,
    WEIGHT_BOUNDS_KG,
    ImputedPatientRecord,
    Race,
    RawPatientRecord,
)

MISSING_TOKENS = {"", "na", "n/a"}

CANONICAL_COLUMNS = (
    "age_decade",
    "height_cm",
    "weight_kg",
    "race",
    "gender",
    *BINARY_COVARIATES,
    "inr",
    "target_inr",
    "therapeutic_dose_mg_week",
)

CANONICAL_SCHEMA = {name: name for name in CANONICAL_COLUMNS}

# variables the imputation plan treats as continuous (mean) vs coded (mode)
MEAN_IMPUTED = ("height_cm", "weight_kg", "target_inr")
MODE_IMPUTED = ("age_decade", "race", "gender", *BINARY_COVARIATES)

# binary variables subject to the minority-fraction filter
FILTERABLE_BINARY = (*BINARY_COVARIATES, "gender")


@dataclass(frozen=True)
class ParseResult:
    """Parsed records plus the row-exclusion tally."""

    records: tuple
    n_data_rows: int
    excluded_missing_dose: int
    excluded_inr: int

    @property
    def n_excluded(self) -> int:
        return self.excluded_missing_dose + self.excluded_inr


def _is_missing(cell: str) -> bool:
    return cell.strip().lower() in MISSING_TOKENS


def _parse_float(cell: str) -> float | None:
    try:
        value = float(cell.strip())
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def _parse_age(cell: str) -> int | None:
    text = cell.strip().rstrip("+")
    if "-" in text:  # range like "50 - 59": the decade is the lower bound
        text = text.split("-", 1)[0].strip()
    value = _parse_float(text)
    if value is None or value != int(value):
        return None
    value = int(value)
    if AGE_DECADE_RANGE[0] <= value <= AGE_DECADE_RANGE[1]:
        return value
    if 10 <= value:  # age in years; 90+ folds into code 9
        return min(value // 10, AGE_DECADE_RANGE[1])
    return None


def _parse_race(cell: str) -> Race | None:
    text = cell.strip().lower()
    value = _parse_float(text)
    if value is not None:
        return Race(int(value)) if value in (1, 2, 3) else None
    if "white" in text or "caucasian" in text:
        return Race.WHITE
    if "african" in text or "black" in text:
        return Race.AFRICAN_AMERICAN
    if "asian" in text:
        return Race.ASIAN
    return None


def _parse_binary(cell: str) -> int | None:
    text = cell.strip().lower()
    if text in ("1", "1.0", "yes", "y", "true"):
        return 1
    if text in ("0", "0.0", "no", "n", "false"):
        return 0
    return None


def _parse_gender(cell: str) -> int | None:
    text = cell.strip().lower()
    if text in ("male", "m"):
        return 1
    if text in ("female", "f"):
        return 0
    return _parse_binary(cell)


def _parse_target_inr(cell: str) -> float | None:
    text = cell.strip()
    value = _parse_float(text)
    if value is not None:
        return value if value > 0 else None
    if "-" in text:  # a range like "2-3" means its midpoint
        lo, _, hi = text.partition("-")
        lo_v, hi_v = _parse_float(lo), _parse_float(hi)
        if lo_v is not None and hi_v is not None and lo_v > 0 and hi_v > 0:
            return 0.5 * (lo_v + hi_v)
    return None


# the coded columns take few distinct cell texts, so parse_cohort parses
# each distinct cell once per file through a table keyed by the text
_CODED_PARSERS = {
    "age_decade": _parse_age,
    "race": _parse_race,
    "gender": _parse_gender,
    "target_inr": _parse_target_inr,
    **{name: _parse_binary for name in BINARY_COVARIATES},
}


def _in_bounds(value, bounds) -> bool:
    return value is not None and bounds[0] <= value <= bounds[1]


def load_schema(path) -> dict:
    """Read a key=value schema file mapping input columns to fields."""
    mapping = {}
    seen_fields = set()
    for raw_line in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        column, sep, target = line.partition("=")
        if not sep:
            raise SchemaError(f"schema line without '=': {raw_line!r}")
        column, target = column.strip(), target.strip()
        if target not in CANONICAL_COLUMNS:
            raise SchemaError(f"schema maps {column!r} to unknown field {target!r}")
        if target in seen_fields:
            raise SchemaError(f"field {target!r} mapped by more than one column")
        seen_fields.add(target)
        mapping[column] = target
    if not mapping:
        raise SchemaError(f"schema file {path} maps no columns")
    return mapping


def _as_text(source) -> str:
    if isinstance(source, bytes):
        return source.decode("utf-8-sig")
    if isinstance(source, str):
        return source
    if hasattr(source, "read"):
        return _as_text(source.read())
    raise SchemaError(f"unreadable cohort source of type {type(source).__name__}")


def parse_cohort(source, schema: dict | None = None) -> ParseResult:
    """Parse delimited text into patient records.

    Rows without a positive therapeutic dose, or whose INR is missing
    or outside [2,3], are excluded and counted. Every other bad cell
    becomes a missing value. Text the csv module cannot split into rows
    is a SchemaError.
    """
    text = _as_text(source)
    try:
        return _parse_rows(text, schema)
    except csv.Error as exc:  # e.g. a bare carriage return inside a field
        raise SchemaError(f"unreadable cohort text: {exc}") from None


def _parse_rows(text: str, schema: dict | None) -> ParseResult:
    schema = dict(schema) if schema is not None else dict(CANONICAL_SCHEMA)
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise SchemaError("cohort input has no header row")
    delimiter = "\t" if "\t" in lines[0] else ("," if "," in lines[0] else "\t")
    reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    header = [cell.strip() for cell in next(reader)]

    col_to_field = {}
    for idx, column in enumerate(header):
        target = schema.get(column)
        if target is not None:
            if target in col_to_field.values():
                raise SchemaError(f"column for field {target!r} appears twice in header")
            col_to_field[idx] = target
    mapped = set(col_to_field.values())
    for required in ("therapeutic_dose_mg_week", "inr"):
        if required not in mapped:
            raise SchemaError(f"no input column maps to required field {required!r}")
    derive_enzyme = "enzyme" not in mapped
    float_columns = {idx: target for idx, target in col_to_field.items()
                     if target not in _CODED_PARSERS}
    coded_columns = [(idx, target, _CODED_PARSERS[target], {})
                     for idx, target in col_to_field.items() if target in _CODED_PARSERS]
    binary_mapped = [name for name in BINARY_COVARIATES if name in mapped]

    records = []
    n_rows = 0
    excluded_dose = 0
    excluded_inr = 0
    for row in reader:
        if not any(cell.strip() for cell in row):
            continue
        n_rows += 1
        cells = {}
        for idx, target in float_columns.items():
            cells[target] = row[idx] if idx < len(row) else ""

        dose = _parse_float(cells.get("therapeutic_dose_mg_week", ""))
        if dose is None or not dose > 0:
            excluded_dose += 1
            continue
        inr = _parse_float(cells.get("inr", ""))
        if inr is None or not 2.0 <= inr <= 3.0:
            excluded_inr += 1
            continue

        height = _parse_float(cells.get("height_cm", ""))
        if not _in_bounds(height, HEIGHT_BOUNDS_CM):
            height = None
        weight = _parse_float(cells.get("weight_kg", ""))
        if not _in_bounds(weight, WEIGHT_BOUNDS_KG):
            weight = None

        coded = {}
        for idx, target, parse, table in coded_columns:
            cell = row[idx] if idx < len(row) else ""
            try:
                coded[target] = table[cell]
            except KeyError:
                coded[target] = table[cell] = parse(cell)
        covariates = {name: coded[name] for name in binary_mapped}
        if derive_enzyme:
            known = [covariates.get(c) for c in ENZYME_COMPONENTS]
            covariates["enzyme"] = 1 if any(v == 1 for v in known) else 0

        records.append(
            RawPatientRecord(
                inr=inr,
                therapeutic_dose_mg_week=dose,
                age_decade=coded.get("age_decade"),
                height_cm=height,
                weight_kg=weight,
                race=coded.get("race"),
                gender=coded.get("gender"),
                target_inr=coded.get("target_inr"),
                covariates=covariates,
            )
        )
    if not records:
        raise EmptyCohortError(
            f"no usable rows: {n_rows} parsed, {excluded_dose} lacked a dose, "
            f"{excluded_inr} failed the INR window"
        )
    return ParseResult(
        records=tuple(records),
        n_data_rows=n_rows,
        excluded_missing_dose=excluded_dose,
        excluded_inr=excluded_inr,
    )


def _binary_values(records, name: str):
    if name == "gender":
        return [r.gender for r in records if r.gender is not None]
    return [r.covariates[name] for r in records if r.covariates[name] is not None]


def filter_unbalanced(records, min_minority_fraction: float = 0.10) -> list[str]:
    """Binary variables whose minority category is too rare to learn from.

    The minority share is computed over non-missing observations; a
    variable is removed when that share is strictly below the cutoff.
    Variables with no observations at all are removed too.
    """
    if not records:
        raise EmptyCohortError("cannot filter an empty cohort")
    if not 0.0 < min_minority_fraction < 0.5:
        raise DomainError("min_minority_fraction must lie in (0, 0.5)")
    removed = []
    for name in FILTERABLE_BINARY:
        values = _binary_values(records, name)
        if not values:
            removed.append(name)
            continue
        ones = sum(values)
        minority = min(ones, len(values) - ones)
        if minority < min_minority_fraction * len(values):
            removed.append(name)
    return removed


@dataclass(frozen=True)
class ImputationPlan:
    """Fill-in statistics, tagged with the split they were fit on."""

    means: dict = field(default_factory=dict)
    modes: dict = field(default_factory=dict)
    provenance: str = "train"

    def __post_init__(self):
        h = self.means.get("height_cm")
        if h is not None and not _in_bounds(h, HEIGHT_BOUNDS_CM):
            raise DomainError(f"plan height mean {h} outside sanity bounds")
        w = self.means.get("weight_kg")
        if w is not None and not _in_bounds(w, WEIGHT_BOUNDS_KG):
            raise DomainError(f"plan weight mean {w} outside sanity bounds")
        t = self.means.get("target_inr")
        if t is not None and not t > 0:
            raise DomainError("plan target_inr mean must be positive")


def _field_value(record, name: str):
    if name in BINARY_COVARIATES:
        return record.covariates[name]
    return getattr(record, name)


def fit_imputation(records, provenance: str = "train") -> ImputationPlan:
    """Means for continuous variables, modes for coded ones.

    Complete cases only; mode ties break toward the smaller code so the
    plan is a pure, deterministic function of the training rows.
    """
    if not records:
        raise EmptyCohortError("cannot fit an imputation plan on an empty cohort")
    means = {}
    for name in MEAN_IMPUTED:
        values = [_field_value(r, name) for r in records]
        values = [v for v in values if v is not None]
        if not values:
            raise UnimputableVariableError(name)
        means[name] = float(np.mean(values))
    modes = {}
    for name in MODE_IMPUTED:
        values = [_field_value(r, name) for r in records]
        values = [int(v) for v in values if v is not None]
        if not values:
            raise UnimputableVariableError(name)
        counts = {}
        for v in values:
            counts[v] = counts.get(v, 0) + 1
        modes[name] = min(counts, key=lambda code: (-counts[code], code))
    return ImputationPlan(means=means, modes=modes, provenance=provenance)


def apply_imputation(plan: ImputationPlan, record) -> ImputedPatientRecord:
    """Fill every missing field from the plan; present fields pass through."""

    def fill(name: str, current):
        if current is not None:
            return current
        table = plan.means if name in MEAN_IMPUTED else plan.modes
        if name not in table:
            raise PlanIncompleteError(f"imputation plan lacks a statistic for {name!r}")
        return table[name]

    covariates = {
        name: fill(name, record.covariates[name]) for name in BINARY_COVARIATES
    }
    return ImputedPatientRecord(
        inr=record.inr,
        therapeutic_dose_mg_week=record.therapeutic_dose_mg_week,
        age_decade=fill("age_decade", record.age_decade),
        height_cm=fill("height_cm", record.height_cm),
        weight_kg=fill("weight_kg", record.weight_kg),
        race=Race(fill("race", record.race)),
        gender=fill("gender", record.gender),
        target_inr=fill("target_inr", record.target_inr),
        covariates=covariates,
    )


def split_cohort(records, train_fraction: float = 0.5, seed: int = 0):
    """Seeded permutation split; the first floor(n*fraction) rows train."""
    if not records:
        raise EmptyCohortError("cannot split an empty cohort")
    if not 0.0 < train_fraction < 1.0:
        raise DomainError("train_fraction must lie in (0, 1)")
    n = len(records)
    n_train = int(math.floor(n * train_fraction))
    if n_train == 0 or n_train == n:
        raise DegenerateSplitError(
            f"split of {n} rows at fraction {train_fraction} leaves one side empty"
        )
    order = np.random.default_rng(seed).permutation(n)
    train = [records[i] for i in order[:n_train]]
    test = [records[i] for i in order[n_train:]]
    return train, test


def _format_cell(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, (int, np.integer)) or (isinstance(value, float) and value == int(value)):
        return str(int(value))
    return f"{float(value):.17g}"


def cohort_to_text(records) -> str:
    """Canonical tab-delimited form; byte-stable for identical cohorts."""
    lines = ["\t".join(CANONICAL_COLUMNS)]
    for r in records:
        row = [
            _format_cell(r.age_decade),
            _format_cell(r.height_cm),
            _format_cell(r.weight_kg),
            _format_cell(None if r.race is None else int(r.race)),
            _format_cell(r.gender),
            *(_format_cell(r.covariates[name]) for name in BINARY_COVARIATES),
            _format_cell(r.inr),
            _format_cell(r.target_inr),
            _format_cell(r.therapeutic_dose_mg_week),
        ]
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"


def plan_to_text(plan: ImputationPlan) -> str:
    lines = [f"provenance {plan.provenance}"]
    for name in MEAN_IMPUTED:
        if name in plan.means:
            lines.append(f"mean {name} {plan.means[name]:.17g}")
    for name in MODE_IMPUTED:
        if name in plan.modes:
            lines.append(f"mode {name} {plan.modes[name]}")
    return "\n".join(lines) + "\n"


def plan_from_text(text: str) -> ImputationPlan:
    means, modes, provenance = {}, {}, "train"
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "provenance" and len(parts) == 2:
            provenance = parts[1]
        elif parts[0] == "mean" and len(parts) == 3:
            means[parts[1]] = float(parts[2])
        elif parts[0] == "mode" and len(parts) == 3:
            modes[parts[1]] = int(parts[2])
        else:
            raise SchemaError(f"bad imputation plan line: {line!r}")
    return ImputationPlan(means=means, modes=modes, provenance=provenance)


def write_cohort(records, path) -> None:
    Path(path).write_text(cohort_to_text(records), encoding="ascii")


def read_cohort(path) -> ParseResult:
    return parse_cohort(Path(path).read_text(encoding="utf-8"), CANONICAL_SCHEMA)
