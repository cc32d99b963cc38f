"""Patient record types and the cohort variable schema.

Field codes follow the dataset conventions: age is a decade code
(1 means 10-19 years, 9 means 90+), race is 1/2/3 for White,
African-American, Asian, gender is 0 female / 1 male, and the named
covariates are 0/1 flags. A None marks a missing value in raw records;
imputed records carry no missing values at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

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
    if inr is not None and not inr > 0:
        raise DomainError(f"inr must be positive, got {inr!r}")
    if target_inr is not None and not target_inr > 0:
        raise DomainError(f"target_inr must be positive, got {target_inr!r}")
    if not dose > 0:
        raise DomainError(f"therapeutic_dose_mg_week must be > 0, got {dose!r}")


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

    def covariate(self, name: str):
        if name not in self.covariates:
            raise SchemaError(f"unknown covariate {name!r}")
        return self.covariates[name]


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

    def covariate(self, name: str) -> int:
        if name not in self.covariates:
            raise SchemaError(f"unknown covariate {name!r}")
        return self.covariates[name]
