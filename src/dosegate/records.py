"""Patient record types, the cohort variable schema, and the column form
of a cohort.

Field codes follow the dataset conventions: age is a decade code
(1 means 10-19 years, 9 means 90+), race is 1/2/3 for White,
African-American, Asian, gender is 0 female / 1 male, and the named
covariates are 0/1 flags. A None marks a missing value in raw records;
imputed records carry no missing values at all.

A record is one validated patient. A batch of patients travels as a
Cohort: one float64 column per canonical field, NaN where a value is
missing. Records and columns convert into each other here and nowhere
else.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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

_COVARIATE_NAMES = frozenset(BINARY_COVARIATES)

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

# fields held as integer codes in a record
_CODED_FIELDS = frozenset(("age_decade", "race", "gender", *BINARY_COVARIATES))

# enzyme inducer status is the OR of these three drugs
ENZYME_COMPONENTS = ("carbamazepine", "phenytoin", "rifampin")

AGE_DECADE_RANGE = (1, 9)
HEIGHT_BOUNDS_CM = (100.0, 250.0)
WEIGHT_BOUNDS_KG = (20.0, 300.0)


class Race(IntEnum):
    WHITE = 1
    AFRICAN_AMERICAN = 2
    ASIAN = 3


def _check_optional_binary(name: str, value):
    if value is not None and value not in (0, 1):
        raise DomainError(f"{name} must be 0, 1, or missing; got {value!r}")


def _normalize_covariates(covariates, allow_missing: bool) -> dict:
    cov = dict(covariates or {})
    if not cov.keys() <= _COVARIATE_NAMES:
        raise SchemaError(f"unknown covariates: {sorted(set(cov) - _COVARIATE_NAMES)}")
    full = {}
    for name in BINARY_COVARIATES:
        value = cov.get(name)
        if value is None:
            if not allow_missing:
                raise DomainError(f"covariate {name} is missing in an imputed record")
            full[name] = None
        elif value in (0, 1):
            full[name] = int(value)
        else:
            raise DomainError(f"{name} must be 0, 1, or missing; got {value!r}")
    return full


def _check_ranges(age_decade, height_cm, weight_kg, gender, inr, target_inr, dose):
    if age_decade is not None and not (
        AGE_DECADE_RANGE[0] <= age_decade <= AGE_DECADE_RANGE[1]
        and int(age_decade) == age_decade
    ):
        raise DomainError(f"age_decade must be an integer code 1..9, got {age_decade!r}")
    if height_cm is not None and not (HEIGHT_BOUNDS_CM[0] <= height_cm <= HEIGHT_BOUNDS_CM[1]):
        raise DomainError(f"height_cm {height_cm!r} outside sanity bounds {HEIGHT_BOUNDS_CM}")
    if weight_kg is not None and not (WEIGHT_BOUNDS_KG[0] <= weight_kg <= WEIGHT_BOUNDS_KG[1]):
        raise DomainError(f"weight_kg {weight_kg!r} outside sanity bounds {WEIGHT_BOUNDS_KG}")
    _check_optional_binary("gender", gender)
    if inr is not None and not 0 < inr < math.inf:
        raise DomainError(f"inr must be positive and finite, got {inr!r}")
    if target_inr is not None and not 0 < target_inr < math.inf:
        raise DomainError(f"target_inr must be positive and finite, got {target_inr!r}")
    if not 0 < dose < math.inf:
        raise DomainError(f"therapeutic_dose_mg_week must be > 0 and finite, got {dose!r}")


@dataclass(frozen=True)
class RawPatientRecord:
    """One parsed patient; None marks a missing value.

    inr and therapeutic dose are always present because rows lacking
    them never enter a cohort; the [2,3] INR inclusion window is a
    parse-time rule, not a record invariant.
    """

    inr: float
    therapeutic_dose_mg_week: float
    age_decade: int | None = None
    height_cm: float | None = None
    weight_kg: float | None = None
    race: Race | None = None
    gender: int | None = None
    target_inr: float | None = None
    covariates: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_ranges(
            self.age_decade, self.height_cm, self.weight_kg, self.gender,
            self.inr, self.target_inr, self.therapeutic_dose_mg_week,
        )
        if self.race is not None:
            object.__setattr__(self, "race", Race(self.race))
        object.__setattr__(
            self, "covariates", _normalize_covariates(self.covariates, allow_missing=True)
        )


@dataclass(frozen=True)
class ImputedPatientRecord:
    """A patient with every field filled in; bounds as in the raw record."""

    inr: float
    therapeutic_dose_mg_week: float
    age_decade: int
    height_cm: float
    weight_kg: float
    race: Race
    gender: int
    target_inr: float
    covariates: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("age_decade", "height_cm", "weight_kg", "race", "gender", "target_inr"):
            if getattr(self, name) is None:
                raise DomainError(f"imputed record is missing {name}")
        _check_ranges(
            self.age_decade, self.height_cm, self.weight_kg, self.gender,
            self.inr, self.target_inr, self.therapeutic_dose_mg_week,
        )
        object.__setattr__(self, "race", Race(self.race))
        object.__setattr__(
            self, "covariates", _normalize_covariates(self.covariates, allow_missing=False)
        )


class Cohort:
    """A cohort as one float64 column per canonical field.

    NaN marks a missing value; race keeps its 1/2/3 code and every flag
    is 0.0 or 1.0. ``columns`` holds the columns as the rows of one
    array, in canonical order; ``cohort[name]`` is a column, ``len()``
    the row count. A Cohort does not validate its values: the parser and
    the record types do.
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

    def __len__(self) -> int:
        return self.columns.shape[1]

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[COLUMN_INDEX[name]]

    def take(self, rows) -> "Cohort":
        """The rows at an index array, mask or slice, in that order."""
        return Cohort(self.columns[:, rows])

    @classmethod
    def from_records(cls, records) -> "Cohort":
        rows = [(r.age_decade, r.height_cm, r.weight_kg, r.race, r.gender,
                 *(r.covariates[name] for name in BINARY_COVARIATES),
                 r.inr, r.target_inr, r.therapeutic_dose_mg_week) for r in records]
        # None becomes NaN
        table = np.array(rows, dtype=np.float64).reshape(len(rows), len(CANONICAL_COLUMNS))
        return cls(table.T)

    def records(self, kind=None) -> tuple:
        """One validated record per row, RawPatientRecord unless ``kind``
        names ImputedPatientRecord."""
        kind = RawPatientRecord if kind is None else kind
        values = [[None if v != v else (int(v) if name in _CODED_FIELDS and v.is_integer()
                                         else v)
                   for v in column]
                  for name, column in zip(CANONICAL_COLUMNS, self.columns.tolist())]
        out = []
        for row in zip(*values):
            fields = dict(zip(CANONICAL_COLUMNS, row))
            covariates = {name: fields.pop(name) for name in BINARY_COVARIATES}
            out.append(kind(covariates=covariates, **fields))
        return tuple(out)


def as_cohort(data) -> Cohort:
    """A Cohort as it is, or the Cohort of a sequence of records."""
    return data if isinstance(data, Cohort) else Cohort.from_records(data)
