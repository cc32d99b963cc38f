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
import itertools
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateSplitError,
    DomainError,
    EmptyCohortError,
    PlanIncompleteError,
    SchemaError,
    UnimputableVariableError,
    read_text,
)
from .records import (
    AGE_DECADE_RANGE,
    BINARY_COVARIATES,
    CANONICAL_COLUMNS,
    COLUMN_INDEX,
    ENZYME_COMPONENTS,
    HEIGHT_BOUNDS_CM,
    WEIGHT_BOUNDS_KG,
    Cohort,
    Race,
)

CANONICAL_SCHEMA = {name: name for name in CANONICAL_COLUMNS}

# variables the imputation plan treats as continuous (mean) vs coded (mode)
MEAN_IMPUTED = ("height_cm", "weight_kg", "target_inr")
MODE_IMPUTED = ("age_decade", "race", "gender", *BINARY_COVARIATES)

_IMPUTED_ROWS = [COLUMN_INDEX[name] for name in (*MEAN_IMPUTED, *MODE_IMPUTED)]

# the codes a plan may fill a coded variable with
_MODE_CODES = {
    "age_decade": range(AGE_DECADE_RANGE[0], AGE_DECADE_RANGE[1] + 1),
    "race": tuple(int(r) for r in Race),
    **{name: (0, 1) for name in ("gender", *BINARY_COVARIATES)},
}

# binary variables subject to the minority-fraction filter, and the share
# of non-missing values below which their minority category is too rare
FILTERABLE_BINARY = (*BINARY_COVARIATES, "gender")
MIN_MINORITY_FRACTION = 0.10


@dataclass(frozen=True)
class ParseResult:
    """The parsed cohort plus the row-exclusion tally."""

    cohort: Cohort
    n_data_rows: int
    excluded_missing_dose: int
    excluded_inr: int

    @property
    def n_excluded(self) -> int:
        return self.excluded_missing_dose + self.excluded_inr


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
            mid = 0.5 * (lo_v + hi_v)
            return mid if math.isfinite(mid) else None  # "1e308-1.7e308" overflows
    return None


# the coded columns take few distinct cell texts, so parse_cohort parses
# each distinct cell once per file through a table keyed by the text
_CODED_PARSERS = {
    "age_decade": _parse_age,
    "race": _parse_race,
    "gender": _parse_gender,
    **{name: _parse_binary for name in BINARY_COVARIATES},
}


# the first line of a text, as str.splitlines() ends it
_FIRST_LINE = re.compile(r"[^\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]*")

# rows parsed per block
_BLOCK_ROWS = 1024


def _split_rows(text: str, delimiter: str):
    """The rows of a text without quotes or carriage returns, as csv reads
    them, split one line at a time: no copy of the text and no list of
    its lines is held. A field longer than csv's field limit raises
    csv's own error, where csv would."""
    limit = csv.field_size_limit()
    start = 0
    while start < len(text):
        end = text.find("\n", start)
        if end < 0:
            end = len(text)
        row = text[start:end].split(delimiter)
        if end - start > limit and max(map(len, row)) > limit:
            raise csv.Error(f"field larger than field limit ({limit})")
        yield row
        start = end + 1


def _in_bounds(value, bounds) -> bool:
    return value is not None and bounds[0] <= value <= bounds[1]


def _float_column(cells) -> np.ndarray:
    """A column of cells as floats; NaN where a cell is not a finite number."""
    try:
        # numpy applies float() to each cell in C; NA, the written form of
        # a missing value, is handed to it as nan
        column = np.array(["nan" if cell == "NA" else cell for cell in cells],
                          dtype=np.float64)
    except ValueError:  # e.g. an empty cell, or a number padded with \x1c-\x1f
        values = []
        append = values.append
        for cell in cells:
            try:
                append(float(cell.strip()))
            except ValueError:
                append(math.nan)
        column = np.array(values, dtype=np.float64)
    column[~np.isfinite(column)] = np.nan
    return column


def _coded_column(cells, parse, table: dict) -> np.ndarray:
    """A coded column; ``table`` keeps each distinct cell text's value,
    so a text is parsed once however often it occurs. Only a block that
    holds a text the table lacks collects its distinct texts."""
    try:
        return np.fromiter(map(table.__getitem__, cells), dtype=np.float64, count=len(cells))
    except KeyError:
        for text in set(cells).difference(table):
            value = parse(text)
            table[text] = math.nan if value is None else float(value)
    return np.fromiter(map(table.__getitem__, cells), dtype=np.float64, count=len(cells))


def _target_inr_column(cells, table: dict) -> np.ndarray:
    """Target INRs: most cells are plain numbers; the rest (ranges, bad
    cells) go through the full target-INR rule."""
    column = _float_column(cells)
    rest = np.flatnonzero(~(column > 0))
    column[rest] = _coded_column([cells[i] for i in rest], _parse_target_inr, table)
    return column


def _read_column(target: str, cells, table: dict) -> np.ndarray:
    if target in _CODED_PARSERS:
        return _coded_column(cells, _CODED_PARSERS[target], table)
    if target == "target_inr":
        return _target_inr_column(cells, table)
    return _float_column(cells)


def _bounded(column: np.ndarray, bounds) -> np.ndarray:
    return np.where((column >= bounds[0]) & (column <= bounds[1]), column, np.nan)


def schema_from_text(text: str) -> dict:
    """Read key=value schema lines mapping input columns to fields."""
    mapping = {}
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        column, sep, target = line.partition("=")
        if not sep:
            raise SchemaError(f"schema line without '=': {raw_line!r}")
        column, target = column.strip(), target.strip()
        if target not in CANONICAL_COLUMNS:
            raise SchemaError(f"schema maps {column!r} to unknown field {target!r}")
        if target in mapping.values():
            raise SchemaError(f"field {target!r} mapped by more than one column")
        if column in mapping:
            raise SchemaError(f"column {column!r} mapped more than once")
        mapping[column] = target
    if not mapping:
        raise SchemaError("schema maps no columns")
    return mapping


def load_schema(path) -> dict:
    """Read a key=value schema file mapping input columns to fields."""
    return schema_from_text(read_text(path, "schema file"))


def parse_cohort(text: str, schema: dict | None = None) -> ParseResult:
    """Parse delimited text into a cohort of columns.

    The first line is the header. Every row is split on tab if the
    header holds one, else on comma if it holds one, else on tab. Fields
    may be quoted as in csv; a row's missing trailing cells read as
    empty, and a blank line is skipped.
    Rows without a positive therapeutic dose, or whose INR is missing
    or outside [2,3], are excluded and counted. Every other bad cell
    becomes a missing value. A field longer than
    ``csv.field_size_limit()``, or a bare carriage return inside an
    unquoted field, is a SchemaError; ``read_cohort`` reads a file with
    universal newlines, which make every CR and CRLF an LF, so only text
    passed here directly can hold the latter.
    """
    try:
        return _parse_rows(text, schema)
    except csv.Error as exc:  # e.g. a bare carriage return inside a field
        raise SchemaError(f"unreadable cohort text: {exc}") from None


def _parse_rows(text: str, schema: dict | None) -> ParseResult:
    schema = dict(schema) if schema is not None else dict(CANONICAL_SCHEMA)
    first_line = _FIRST_LINE.match(text).group()
    if not first_line.strip():
        raise SchemaError("cohort input has no header row")
    delimiter = "\t" if "\t" in first_line else ("," if "," in first_line else "\t")
    # only csv splits quoted fields and raises on a bare carriage return
    if '"' in text or "\r" in text:
        reader = csv.reader(io.StringIO(text), delimiter=delimiter)
    else:
        reader = _split_rows(text, delimiter)
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

    # the rows are transposed a block at a time, so only one block's cell
    # texts are held at once
    parts = {target: [np.empty(0)] for target in mapped}
    tables = {target: {} for target in mapped}
    n = 0
    for chunk in iter(lambda: list(itertools.islice(reader, _BLOCK_ROWS)), []):
        rows = [row for row in chunk if any(map(str.strip, row))]  # skip blank rows
        n += len(rows)
        # a short row's absent cells read as empty
        cells = list(itertools.zip_longest(*rows, fillvalue=""))
        for idx, target in col_to_field.items():
            block = cells[idx] if idx < len(cells) else ("",) * len(rows)
            parts[target].append(_read_column(target, block, tables[target]))
    columns = {name: np.full(n, np.nan) for name in CANONICAL_COLUMNS}
    columns.update({target: np.concatenate(part) for target, part in parts.items()})
    if "enzyme" not in mapped:
        columns["enzyme"] = np.zeros(n)
        for name in ENZYME_COMPONENTS:
            columns["enzyme"][columns[name] == 1] = 1.0
    columns["height_cm"] = _bounded(columns["height_cm"], HEIGHT_BOUNDS_CM)
    columns["weight_kg"] = _bounded(columns["weight_kg"], WEIGHT_BOUNDS_KG)

    has_dose = columns["therapeutic_dose_mg_week"] > 0
    inr = columns["inr"]
    keep = has_dose & (inr >= 2.0) & (inr <= 3.0)
    excluded_dose = n - int(np.count_nonzero(has_dose))
    excluded_inr = n - excluded_dose - int(np.count_nonzero(keep))
    if not keep.any():
        raise EmptyCohortError(
            f"no usable rows: {n} parsed, {excluded_dose} lacked a dose, "
            f"{excluded_inr} failed the INR window"
        )
    # the Cohort holds the kept rows only, since an excluded row may lack
    # its dose. One stacked table is masked while held: masking each
    # column instead made the heap release and fault back in about 560
    # pages per 4,237-row parse
    table = np.array([columns[name] for name in CANONICAL_COLUMNS])
    return ParseResult(
        cohort=Cohort(table[:, keep]),
        n_data_rows=n,
        excluded_missing_dose=excluded_dose,
        excluded_inr=excluded_inr,
    )


def filter_unbalanced(cohort: Cohort) -> list[str]:
    """Binary variables whose minority category is too rare to learn from.

    The minority share is computed over non-missing observations; a
    variable is removed when that share is strictly below
    MIN_MINORITY_FRACTION. Variables with no observations at all are
    removed too.
    """
    if not len(cohort):
        raise EmptyCohortError("cannot filter an empty cohort")
    removed = []
    for name in FILTERABLE_BINARY:
        column = cohort[name]
        observed = int(np.count_nonzero(~np.isnan(column)))
        ones = int(np.count_nonzero(column == 1))
        if not observed or min(ones, observed - ones) < MIN_MINORITY_FRACTION * observed:
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
        if t is not None and not 0 < t < math.inf:
            raise DomainError("plan target_inr mean must be positive and finite")
        for name, code in self.modes.items():
            if name in _MODE_CODES and code not in _MODE_CODES[name]:
                raise DomainError(f"plan mode {code!r} is not a code of {name}")


def _observed(column: np.ndarray) -> np.ndarray:
    return column[~np.isnan(column)]


def fit_imputation(cohort: Cohort) -> ImputationPlan:
    """Means for continuous variables, modes for coded ones.

    Complete cases only; mode ties break toward the smaller code so the
    plan is a pure, deterministic function of the training rows.
    """
    if not len(cohort):
        raise EmptyCohortError("cannot fit an imputation plan on an empty cohort")
    means = {}
    for name in MEAN_IMPUTED:
        values = _observed(cohort[name])
        if not values.size:
            raise UnimputableVariableError(name)
        means[name] = float(np.mean(values))
    modes = {}
    for name in MODE_IMPUTED:
        values = _observed(cohort[name])
        if not values.size:
            raise UnimputableVariableError(name)
        codes, counts = np.unique(values, return_counts=True)  # codes ascending
        modes[name] = int(codes[np.argmax(counts)])
    return ImputationPlan(means=means, modes=modes)


def apply_imputation(plan: ImputationPlan, cohort: Cohort) -> Cohort:
    """Fill every missing value from the plan; present values pass through."""
    block = cohort.columns[_IMPUTED_ROWS]
    missing = np.isnan(block)
    fill = np.full(len(_IMPUTED_ROWS), np.nan)
    for k, name in enumerate((*MEAN_IMPUTED, *MODE_IMPUTED)):
        table = plan.means if name in MEAN_IMPUTED else plan.modes
        if name in table:
            fill[k] = table[name]
        elif missing[k].any():
            raise PlanIncompleteError(f"imputation plan lacks a statistic for {name!r}")
    columns = cohort.columns.copy()
    columns[_IMPUTED_ROWS] = np.where(missing, fill[:, None], block)
    return Cohort(columns)


def split_cohort(cohort: Cohort, train_fraction: float = 0.5,
                 seed: int = 0) -> tuple[Cohort, Cohort]:
    """Seeded permutation split; the first floor(n*fraction) rows train."""
    n = len(cohort)
    if not n:
        raise EmptyCohortError("cannot split an empty cohort")
    if not 0.0 < train_fraction < 1.0:
        raise DomainError("train_fraction must lie in (0, 1)")
    n_train = int(math.floor(n * train_fraction))
    if n_train == 0 or n_train == n:
        raise DegenerateSplitError(
            f"split of {n} rows at fraction {train_fraction} leaves one side empty"
        )
    order = np.random.default_rng(seed).permutation(n)
    return cohort.take(order[:n_train]), cohort.take(order[n_train:])


def _format_cell(value: float) -> str:
    if value != value:
        return "NA"
    return str(int(value)) if value.is_integer() else f"{value:.17g}"


def _format_distinct(column, format_cell) -> list:
    """``format_cell`` of each value, called once per distinct value (a
    coded column holds a handful). Values are keyed on their bits, so
    -0.0 is formatted apart from 0.0."""
    bits, rows = np.unique(np.asarray(column, dtype=np.float64).view(np.int64),
                           return_inverse=True)
    texts = np.array([format_cell(value) for value in bits.view(np.float64).tolist()],
                     dtype=object)
    return texts[rows].tolist()


def cohort_to_text(cohort: Cohort) -> str:
    """Canonical tab-delimited form; byte-stable for identical cohorts."""
    columns = [_format_distinct(cohort[name], _format_cell) for name in CANONICAL_COLUMNS]
    lines = ["\t".join(CANONICAL_COLUMNS), *map("\t".join, zip(*columns))]
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
        try:
            if parts[0] == "provenance" and len(parts) == 2:
                provenance = parts[1]
            elif parts[0] == "mean" and len(parts) == 3 and parts[1] in MEAN_IMPUTED:
                means[parts[1]] = float(parts[2])
            elif parts[0] == "mode" and len(parts) == 3 and parts[1] in MODE_IMPUTED:
                modes[parts[1]] = int(parts[2])
            else:
                raise ValueError
        except ValueError:
            raise SchemaError(f"bad imputation plan line: {line!r}") from None
    return ImputationPlan(means=means, modes=modes, provenance=provenance)


def load_plan(path) -> ImputationPlan:
    return plan_from_text(read_text(path, "imputation plan"))


def read_cohort(path) -> ParseResult:
    return parse_cohort(read_text(path, "cohort file"), CANONICAL_SCHEMA)
