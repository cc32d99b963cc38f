"""Synthetic cohort generator.

Marginals are calibrated to the published dataset description:
truncated normals for the continuous variables, table frequencies
(including missingness rates) for the coded ones. The therapeutic dose
is built from the clinical model's own prediction on the complete
(pre-masking) covariates: a "risky" subset, driven by observable
covariates through a logistic model, gets a 25-60% dose deviation while
the rest stays within 8%. That construction puts every risky patient
past the 15% gate threshold and leaves the safe ones inside it, so a
classifier over the covariates has real signal to find.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .iwpc import DEFAULT_COEFFICIENTS, weekly_doses
from .records import BINARY_COVARIATES, Cohort, Race

COHORT_TOTAL = 4237

# age decade code counts (codes 1..9) and missing count
AGE_COUNTS = (9, 94, 189, 441, 803, 1020, 1129, 510, 28)
AGE_MISSING = 14

RACE_COUNTS = {Race.WHITE: 2663, Race.AFRICAN_AMERICAN: 656, Race.ASIAN: 918}

GENDER_ONES = 2415  # male; no gender is missing

# covariate -> (count of 0, count of 1, count missing), summing to 4237
COVARIATE_TABLE = {
    "amiodarone": (3434, 228, 575),
    "aspirin": (2667, 905, 665),
    "atorvastatin": (2028, 233, 1976),
    "chf": (2453, 484, 1300),
    "carbamazepine": (2210, 29, 1998),
    "current_smoker": (2554, 384, 1299),
    "dvt_pe": (3846, 391, 0),
    "diabetes": (2337, 543, 1357),
    "enzyme": (4150, 87, 0),
    "fluvastatin": (2350, 10, 1877),
    "lovastatin": (2203, 38, 1996),
    "macrolide": (2227, 6, 2004),
    "phenytoin": (2210, 24, 2003),
    "pravastatin": (2175, 66, 1996),
    "rifampin": (2230, 3, 2004),
    "rosuvastatin": (2220, 14, 2003),
    "simvastatin": (3035, 558, 644),
    "sulfonamide": (2223, 11, 2003),
    "valve_replacement": (2175, 645, 1417),
}

# variable -> (mean, std, low, high, count missing)
CONTINUOUS_TABLE = {
    "height_cm": (169.7, 10.6, 127.0, 202.0, 696),
    "weight_kg": (81.3, 22.7, 34.0, 237.7, 163),
    "inr": (2.5, 0.3, 2.0, 3.0, 0),
    "target_inr": (2.5, 0.1, 1.8, 3.5, 0),
}


# The ground-truth risk model and dose-noise bands. The risk logit reads
# only covariates the classifier can see, so the gate is learnable;
# SAFE_REL must stay below threshold/(1-threshold) and RISKY_REL_LOW
# above threshold/(1+threshold) for the 15% rule to separate the groups
# exactly.
RISK_INTERCEPT = -0.9
RISK_SMOKER = 2.2
RISK_DIABETES = 1.8
RISK_ASPIRIN = 1.6
RISK_VALVE = 1.5
RISK_PER_AGE_DECADE = 0.55
RISK_PER_KG = 0.045
AGE_CENTER = 5.8
WEIGHT_CENTER_KG = 81.3
SAFE_REL = 0.08
RISKY_REL_LOW = 0.25
RISKY_REL_HIGH = 0.60


def _truncated_normal(rng, mean, std, low, high, size) -> np.ndarray:
    values = rng.normal(mean, std, size)
    bad = (values < low) | (values > high)
    while bad.any():  # redraw only the offenders; keeps draws bounded
        values[bad] = rng.normal(mean, std, int(bad.sum()))
        bad = (values < low) | (values > high)
    return values


def generate_synthetic_cohort(n: int, seed: int) -> Cohort:
    """A deterministic Cohort with table-true marginals."""
    if n <= 0:
        raise DomainError("cohort size must be positive")
    rng = np.random.default_rng(seed)

    age_probs = np.array(AGE_COUNTS, dtype=float)
    age_probs /= age_probs.sum()
    age = rng.choice(np.arange(1, 10), size=n, p=age_probs)

    height = _truncated_normal(rng, *CONTINUOUS_TABLE["height_cm"][:4], n)
    weight = _truncated_normal(rng, *CONTINUOUS_TABLE["weight_kg"][:4], n)

    race_codes = np.array([int(r) for r in RACE_COUNTS])
    race_probs = np.array(list(RACE_COUNTS.values()), dtype=float)
    race_probs /= race_probs.sum()
    race = rng.choice(race_codes, size=n, p=race_probs)

    gender = (rng.random(n) < GENDER_ONES / COHORT_TOTAL).astype(int)

    true_cov = {}
    for name in BINARY_COVARIATES:
        zeros, ones, _ = COVARIATE_TABLE[name]
        true_cov[name] = (rng.random(n) < ones / (zeros + ones)).astype(int)

    inr = _truncated_normal(rng, *CONTINUOUS_TABLE["inr"][:4], n)
    target_inr = _truncated_normal(rng, *CONTINUOUS_TABLE["target_inr"][:4], n)

    logit = (
        RISK_INTERCEPT
        + RISK_SMOKER * true_cov["current_smoker"]
        + RISK_DIABETES * true_cov["diabetes"]
        + RISK_ASPIRIN * true_cov["aspirin"]
        + RISK_VALVE * true_cov["valve_replacement"]
        + RISK_PER_AGE_DECADE * (age - AGE_CENTER)
        + RISK_PER_KG * (weight - WEIGHT_CENTER_KG)
    )
    risky = rng.random(n) < 1.0 / (1.0 + np.exp(-logit))

    rel = rng.uniform(-SAFE_REL, SAFE_REL, n)
    magnitude = rng.uniform(RISKY_REL_LOW, RISKY_REL_HIGH, n)
    direction = np.where(rng.random(n) < 0.5, -1.0, 1.0)
    rel[risky] = (direction * magnitude)[risky]

    truth = {
        "age_decade": age, "height_cm": height, "weight_kg": weight, "race": race,
        "gender": gender, **true_cov, "inr": inr, "target_inr": target_inr,
        "therapeutic_dose_mg_week": np.ones(n),  # placeholder; the dose is what we compute
    }
    doses = weekly_doses(Cohort(truth), DEFAULT_COEFFICIENTS) * (1.0 + rel)

    # hide values at the table missingness rates, after the ground truth
    # is fixed, so missingness is independent of risk
    age_mask = rng.random(n) < AGE_MISSING / COHORT_TOTAL
    height_mask = rng.random(n) < CONTINUOUS_TABLE["height_cm"][4] / COHORT_TOTAL
    weight_mask = rng.random(n) < CONTINUOUS_TABLE["weight_kg"][4] / COHORT_TOTAL
    cov_masks = {
        name: rng.random(n) < COVARIATE_TABLE[name][2] / COHORT_TOTAL
        for name in BINARY_COVARIATES
    }

    hidden = {"age_decade": age_mask, "height_cm": height_mask, "weight_kg": weight_mask,
              **cov_masks}
    return Cohort({
        name: np.where(hidden[name], np.nan, column) if name in hidden else column
        for name, column in truth.items()
    } | {"therapeutic_dose_mg_week": doses})
