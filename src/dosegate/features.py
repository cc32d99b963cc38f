"""Feature encoding for the gate classifier.

Race becomes two indicator columns (African-American, Asian) with White
as the reference level, matching the dose model's own encoding. Coded
and continuous features (age decade, height, weight, target INR) are
z-scored with the population standard deviation; binary features pass
through as 0/1 and get identity scaler entries, so one (mean, scale)
pair per column describes the whole transform.

Observed INR and the therapeutic dose are never features: the first is
unknown at prescribing time and the second is the target.
"""

from __future__ import annotations

import numpy as np

from .cohort import filter_unbalanced
from .errors import DataError, SchemaError
from .records import BINARY_COVARIATES, COLUMN_INDEX, Cohort, Race

RACE_INDICATORS = ("race_african_american", "race_asian")
SCALED_FEATURES = ("age_decade", "height_cm", "weight_kg", "target_inr")

# candidate features in canonical order; the unbalanced filter prunes this
FEATURE_CANDIDATES = (
    "age_decade",
    "height_cm",
    "weight_kg",
    "gender",
    *RACE_INDICATORS,
    "target_inr",
    *BINARY_COVARIATES,
)


def default_feature_names(cohort: Cohort) -> tuple:
    """The classifier feature list for a training cohort.

    Applies the minority-fraction filter to the binary variables
    and always drops enzyme: it stays an input to the dose model but is
    far too rare in this population to carry classifier signal.
    """
    removed = set(filter_unbalanced(cohort))
    removed.add("enzyme")
    return tuple(name for name in FEATURE_CANDIDATES if name not in removed)


# feature -> (the cohort column it reads, the code it indicates, or None
# for the column's own value)
_FEATURE_SOURCES = {
    "race_african_american": ("race", Race.AFRICAN_AMERICAN),
    "race_asian": ("race", Race.ASIAN),
    **{name: (name, None) for name in FEATURE_CANDIDATES if name not in RACE_INDICATORS},
}


def feature_rows(cohort: Cohort, feature_names) -> np.ndarray:
    """Raw (unscaled) feature rows of a Cohort; what decision_values
    expects."""
    names = tuple(feature_names)
    for name in names:
        if name not in _FEATURE_SOURCES:
            raise SchemaError(f"unknown feature name {name!r}")
    raw = cohort.columns[[COLUMN_INDEX[_FEATURE_SOURCES[name][0]] for name in names]]
    for k, name in enumerate(names):
        code = _FEATURE_SOURCES[name][1]
        if code is not None:
            raw[k] = np.where(np.isnan(raw[k]), np.nan, raw[k] == code)
    gaps = np.isnan(raw).any(axis=1)
    if gaps.any():
        name = names[int(np.argmax(gaps))]
        raise DataError(f"a row has a missing value for feature {name!r}; impute first")
    return np.ascontiguousarray(raw.T)


def encode_features(cohort: Cohort, feature_names) -> tuple:
    """The standardized rows ``x`` and the scaler ``(means, scales)`` fit
    on them, as ``(x, means, scales)`` (population sigma; constant
    columns keep scale 1)."""
    names = tuple(feature_names)
    raw = feature_rows(cohort, names)
    means = np.zeros(len(names))
    scales = np.ones(len(names))
    for j, name in enumerate(names):
        if name in SCALED_FEATURES:
            means[j] = float(np.mean(raw[:, j]))
            sigma = float(np.std(raw[:, j]))  # population, divide by n
            scales[j] = sigma if sigma > 0 else 1.0
    return (raw - means) / scales, means, scales
