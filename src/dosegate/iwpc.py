"""The IWPC clinical dose model.

A published linear model on the square root of the weekly warfarin dose
(mg/week). The coefficients are compile-time constants; loading
different values from a file is possible but must be explicitly forced,
since silently re-fitted constants would no longer be the clinical
model this package claims to apply.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, DosegateError, NonPhysicalDoseError, SchemaError, read_text
from .records import Cohort, Race


@dataclass(frozen=True)
class IwpcCoefficients:
    """Additive contributions to sqrt(mg/week)."""

    intercept: float = 4.0376
    age_per_decade: float = -0.2546
    height_per_cm: float = 0.0118
    weight_per_kg: float = 0.0134
    asian: float = -0.6752
    black: float = 0.406
    race_missing: float = 0.0443
    enzyme: float = 1.2799
    amiodarone: float = -0.5695


DEFAULT_COEFFICIENTS = IwpcCoefficients()


def sqrt_weekly_doses(cohort: Cohort,
                      coeffs: IwpcCoefficients = DEFAULT_COEFFICIENTS) -> np.ndarray:
    """Linear predictor in sqrt(mg/week) space, one value per row of a
    Cohort.

    Exactly one race term contributes; a row with unknown race takes
    the race-missing adjustment (absent from this dataset but kept for
    schema fidelity). Each row's terms are added in the published order,
    so a value does not depend on the rows around it. The first row the
    model cannot take raises, and the error's ``row`` attribute names it.
    """
    age, height, weight = cohort["age_decade"], cohort["height_cm"], cohort["weight_kg"]
    race, enzyme, amiodarone = cohort["race"], cohort["enzyme"], cohort["amiodarone"]
    value = (
        coeffs.intercept
        + coeffs.age_per_decade * age
        + coeffs.height_per_cm * height
        + coeffs.weight_per_kg * weight
    )
    # white adds 0.0, which leaves every value's bits as they are
    value = value + np.where(np.isnan(race), coeffs.race_missing,
                             np.where(race == Race.ASIAN, coeffs.asian,
                                      np.where(race == Race.AFRICAN_AMERICAN, coeffs.black, 0.0)))
    value = value + (coeffs.enzyme * enzyme + coeffs.amiodarone * amiodarone)

    # a missing input leaves NaN, which fails value > 0
    bad = ~(value > 0)
    if bad.any():
        row = int(np.argmax(bad))
        error = _row_error(age[row], height[row], weight[row], enzyme[row], amiodarone[row],
                           value[row])
        error.row = row
        raise error
    return value


def _row_error(age, height, weight, enzyme, amiodarone, value) -> DosegateError:
    """Why the model cannot take a row, by the first check it fails."""
    if np.isnan(age):
        return DomainError("dose model needs age_decade, which is missing")
    for name, field_value in (("height_cm", height), ("weight_kg", weight)):
        if np.isnan(field_value):
            return DomainError(f"dose model needs {name}, which is missing")
    if np.isnan(enzyme) or np.isnan(amiodarone):
        return DomainError("dose model needs enzyme and amiodarone flags")
    return NonPhysicalDoseError(
        f"sqrt-dose predictor {value:.4f} <= 0; record outside model range")


def weekly_doses(cohort: Cohort,
                 coeffs: IwpcCoefficients = DEFAULT_COEFFICIENTS) -> np.ndarray:
    """Doses in mg/week: the squares of the sqrt-space predictor."""
    root = sqrt_weekly_doses(cohort, coeffs)
    return root * root


def predict_weekly_dose(patient: Cohort,
                        coeffs: IwpcCoefficients = DEFAULT_COEFFICIENTS) -> float:
    """Dose in mg/week for a one-row Cohort."""
    return float(weekly_doses(patient, coeffs)[0])


def load_coefficients(path, allow_override: bool = False) -> IwpcCoefficients:
    """Read key=value coefficients; deviations require allow_override."""
    values = {}
    names = {f.name for f in fields(IwpcCoefficients)}
    for raw_line in read_text(path, "coefficient file").splitlines():
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        try:
            if not sep or key not in names:
                raise ValueError
            values[key] = float(value.strip())
        except ValueError:
            raise SchemaError(f"bad coefficient line: {raw_line!r}") from None
    coeffs = IwpcCoefficients(**values)
    if coeffs != DEFAULT_COEFFICIENTS and not allow_override:
        raise DomainError(
            "coefficient file deviates from the published values; "
            "pass the override flag to use it anyway"
        )
    return coeffs
