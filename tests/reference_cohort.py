"""Reference cohort reader: every row through the csv module, every float
cell through its own ``float()`` call.

`dosegate.cohort.parse_cohort` splits quote-free text itself, one line at
a time, converts a float column with one numpy call, falling back to the
per-cell loop kept here, and looks a coded block's cells up in its table
before it collects their distinct texts. For any text the two must give
the same ParseResult or raise the same error with the same message. Used
only as a verification oracle.
"""

from __future__ import annotations

import csv
import io
import itertools
import math

import numpy as np

from dosegate.cohort import (
    _BLOCK_ROWS,
    _CODED_PARSERS,
    _FIRST_LINE,
    CANONICAL_SCHEMA,
    ParseResult,
    _bounded,
    _parse_target_inr,
)
from dosegate.errors import EmptyCohortError, SchemaError
from dosegate.records import (
    CANONICAL_COLUMNS,
    ENZYME_COMPONENTS,
    HEIGHT_BOUNDS_CM,
    WEIGHT_BOUNDS_KG,
    Cohort,
)


def _float_column(cells) -> np.ndarray:
    values = []
    for cell in cells:
        try:
            values.append(float(cell.strip()))
        except ValueError:
            values.append(math.nan)
    column = np.array(values, dtype=np.float64)
    column[~np.isfinite(column)] = np.nan
    return column


def _coded_column(cells, parse, table: dict) -> np.ndarray:
    for text in set(cells).difference(table):
        value = parse(text)
        table[text] = math.nan if value is None else float(value)
    return np.fromiter(map(table.__getitem__, cells), dtype=np.float64, count=len(cells))


def _read_column(target: str, cells, table: dict) -> np.ndarray:
    if target in _CODED_PARSERS:
        return _coded_column(cells, _CODED_PARSERS[target], table)
    column = _float_column(cells)
    if target == "target_inr":
        rest = np.flatnonzero(~(column > 0))
        column[rest] = _coded_column([cells[i] for i in rest], _parse_target_inr, table)
    return column


def reference_parse_cohort(text: str, schema: dict | None = None) -> ParseResult:
    try:
        return _parse_rows(text, schema)
    except csv.Error as exc:
        raise SchemaError(f"unreadable cohort text: {exc}") from None


def _parse_rows(text: str, schema: dict | None) -> ParseResult:
    schema = dict(schema) if schema is not None else dict(CANONICAL_SCHEMA)
    first_line = _FIRST_LINE.match(text).group()
    if not first_line.strip():
        raise SchemaError("cohort input has no header row")
    delimiter = "\t" if "\t" in first_line else ("," if "," in first_line else "\t")
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

    parts = {target: [np.empty(0)] for target in mapped}
    tables = {target: {} for target in mapped}
    n = 0
    for chunk in iter(lambda: list(itertools.islice(reader, _BLOCK_ROWS)), []):
        rows = [row for row in chunk if "".join(row).strip()]
        n += len(rows)
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
    table = np.array([columns[name] for name in CANONICAL_COLUMNS])
    return ParseResult(
        cohort=Cohort(table[:, keep]),
        n_data_rows=n,
        excluded_missing_dose=excluded_dose,
        excluded_inr=excluded_inr,
    )
