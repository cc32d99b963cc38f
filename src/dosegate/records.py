"""The cohort variable schema and the one form a patient takes: a
Cohort, one float64 column per canonical field.

Field codes follow the dataset conventions: age is a decade code
(1 means 10-19 years, 9 means 90+), race is 1/2/3 for White,
African-American, Asian, gender is 0 female / 1 male, and the named
covariates are 0/1 flags. NaN marks a missing value. A single patient,
as `dose` takes one, is a one-row Cohort.
"""

from __future__ import annotations

import sys
from enum import IntEnum

import numpy as np

from .errors import DomainError, SchemaError

# Table-driven variable set for the medication/comorbidity flags.
BINARY_COVARIATES = (
    "amiodarone",
    "aspirin",
    "atorvastatin",
    "chf",
    "carbamazepine",
    "current_smoker",
    "dvt_pe",
    "diabetes",
    "enzyme",
    "fluvastatin",
    "lovastatin",
    "macrolide",
    "phenytoin",
    "pravastatin",
    "rifampin",
    "rosuvastatin",
    "simvastatin",
    "sulfonamide",
    "valve_replacement",
)

# the canonical field order of a cohort, in its columns and in its text form
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

COLUMN_INDEX = {name: j for j, name in enumerate(CANONICAL_COLUMNS)}

# enzyme inducer status is the OR of these three drugs
ENZYME_COMPONENTS = ("carbamazepine", "phenytoin", "rifampin")

AGE_DECADE_RANGE = (1, 9)
HEIGHT_BOUNDS_CM = (100.0, 250.0)
WEIGHT_BOUNDS_KG = (20.0, 300.0)


class Race(IntEnum):
    WHITE = 1
    AFRICAN_AMERICAN = 2
    ASIAN = 3


# the range a positive, finite value lies in
_POSITIVE = (5e-324, sys.float_info.max)

_CODE = "{name} must be an integer code {low}..{high}, got {value}"
_FLAG = "{name} must be 0, 1, or missing; got {value}"
_BOUNDED = "{name} {value} outside sanity bounds ({low!r}, {high!r})"
_POSITIVE_FINITE = "{name} must be positive and finite, got {value}"

# per canonical column: the lowest and highest value it may hold, whether
# its values are integer codes, whether it may be missing (NaN), and the
# message for a value that breaks these rules
_RULES = {
    "age_decade": (*AGE_DECADE_RANGE, True, True, _CODE),
    "height_cm": (*HEIGHT_BOUNDS_CM, False, True, _BOUNDED),
    "weight_kg": (*WEIGHT_BOUNDS_KG, False, True, _BOUNDED),
    "race": (min(Race).value, max(Race).value, True, True, _CODE),
    **{name: (0, 1, True, True, _FLAG) for name in ("gender", *BINARY_COVARIATES)},
    "inr": (*_POSITIVE, False, True, _POSITIVE_FINITE),
    "target_inr": (*_POSITIVE, False, True, _POSITIVE_FINITE),
    "therapeutic_dose_mg_week": (*_POSITIVE, False, False,
                                 "{name} must be > 0 and finite, got {value}"),
}

# the rules as arrays: bounds and a 1.0/0.0 coded mark per column, and
# the columns that may not be missing
_LOW, _HIGH, _CODED = (np.array([[float(_RULES[name][k])] for name in CANONICAL_COLUMNS])
                       for k in range(3))
_REQUIRED = [j for j, name in enumerate(CANONICAL_COLUMNS) if not _RULES[name][3]]


def _check_values(columns: np.ndarray):
    """Raise DomainError naming the first value, in canonical column
    order, that breaks its column's rule."""
    # a comparison with NaN is false, so a missing value passes the bounds
    bad = columns < _LOW
    bad |= columns > _HIGH
    with np.errstate(invalid="ignore"):  # an infinity's fraction is NaN; the bounds catch it
        fraction = np.rint(columns)
        fraction -= columns
    np.abs(fraction, out=fraction)
    fraction *= _CODED
    bad |= fraction > 0
    for j in _REQUIRED:
        bad[j] |= np.isnan(columns[j])
    if not bad.any():
        return
    j, i = divmod(int(np.argmax(bad)), columns.shape[1])
    name = CANONICAL_COLUMNS[j]
    low, high, coded, _, message = _RULES[name]
    value = float(columns[j, i])
    shown = str(int(value)) if coded and value.is_integer() else repr(value)
    raise DomainError(message.format(name=name, value=shown, low=low, high=high))


class Cohort:
    """A cohort as one float64 column per canonical field.

    NaN marks a missing value; race keeps its 1/2/3 code and every flag
    is 0.0 or 1.0. ``columns`` holds the columns as the rows of one
    array, in canonical order; ``cohort[name]`` is a column, ``len()``
    the row count. Every Cohort checks its values when it is made: a
    code outside its range, a height or weight outside its sanity
    bounds, an INR or target INR that is not positive and finite, or a
    therapeutic dose that is missing, is a DomainError. The parser turns
    an out-of-bounds height or weight into a missing value before it
    makes its Cohort.
    """

    __slots__ = ("columns",)

    def __init__(self, columns):
        """``columns``: a mapping of every canonical field to its column,
        or an array whose rows are the columns in canonical order."""
        if isinstance(columns, dict):
            if set(columns) != set(CANONICAL_COLUMNS):
                raise SchemaError("a cohort needs exactly the canonical columns")
            columns = [columns[name] for name in CANONICAL_COLUMNS]
        try:
            self.columns = np.ascontiguousarray(columns, dtype=np.float64)
        except ValueError:
            raise DomainError("cohort columns must be of one length") from None
        if self.columns.ndim != 2 or self.columns.shape[0] != len(CANONICAL_COLUMNS):
            raise DomainError(f"a cohort has {len(CANONICAL_COLUMNS)} 1-D columns")
        _check_values(self.columns)

    def __len__(self) -> int:
        return self.columns.shape[1]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[COLUMN_INDEX[name]]

    def take(self, rows) -> "Cohort":
        """The rows at an index array, mask or slice, in that order."""
        return Cohort(self.columns[:, rows])
