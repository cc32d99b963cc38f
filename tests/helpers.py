"""Shared patient factories and toy-data generators for the test suite."""

import math
from pathlib import Path

import numpy as np

from dosegate import svm
from dosegate.kernels import ANOVA_BLOCK_CELLS
from dosegate.records import BINARY_COVARIATES, CANONICAL_COLUMNS, Cohort, Race

# the identity column map that ships with the package
CANONICAL_SCHEMA_FILE = (Path(__file__).resolve().parents[1] / "src" / "dosegate" / "schemas"
                         / "canonical.txt")

# a complete patient; every field a one-row Cohort needs
PATIENT = {
    "age_decade": 5,
    "height_cm": 170.0,
    "weight_kg": 80.0,
    "race": Race.WHITE,
    "gender": 1,
    **{name: 0 for name in BINARY_COVARIATES},
    "inr": 2.5,
    "target_inr": 2.5,
    "therapeutic_dose_mg_week": 34.0,
}


def make_patient(**fields):
    """A one-row Cohort of PATIENT with ``fields`` changed; a field given
    as None is missing."""
    assert fields.keys() <= PATIENT.keys(), fields.keys() - PATIENT.keys()
    values = {**PATIENT, **fields}
    return Cohort({name: [np.nan if values[name] is None else values[name]]
                   for name in CANONICAL_COLUMNS})


def stack(cohorts):
    """One Cohort of the rows of ``cohorts``, in order."""
    return Cohort(np.hstack([cohort.columns for cohort in cohorts]))


def separable_blobs(rng, n_per_class=15, gap=4.0, dims=2):
    """Two well-separated Gaussian blobs; linearly separable with margin."""
    neg = rng.normal(-gap / 2.0, 0.5, size=(n_per_class, dims))
    pos = rng.normal(+gap / 2.0, 0.5, size=(n_per_class, dims))
    x = np.vstack([neg, pos])
    labels = np.array([-1.0] * n_per_class + [1.0] * n_per_class)
    order = rng.permutation(len(labels))
    return x[order], labels[order]


def solver_limits(monkeypatch, kkt_tolerance=svm.KKT_TOLERANCE, max_passes=svm.MAX_PASSES):
    """Set the dual solver's KKT tolerance and pass budget for one test;
    forked cross-validation workers inherit them."""
    monkeypatch.setattr(svm, "KKT_TOLERANCE", kkt_tolerance)
    monkeypatch.setattr(svm, "MAX_PASSES", max_passes)


# the most values an anova dimension has for the factor to table its terms
TABLE_VALUES = math.isqrt(ANOVA_BLOCK_CELLS)


def mixed_rows(rows, seed):
    """Coded columns (two values, nine, 0.0 beside -0.0 and 0.7), a
    continuous one, a one-value column, and columns of as many values as
    the factor tables and one more; each code cycles, so a column of r
    rows takes min(r, values) of them."""
    rng = np.random.default_rng(seed)

    def codes(values):
        return rng.permutation(np.resize(np.asarray(values, dtype=float), rows))

    return np.column_stack([
        codes([-0.8123, 1.2311]), 0.3 * rng.normal(size=rows),
        codes((np.arange(1.0, 10.0) - 5.37) / 1.83), codes([0.0, -0.0, 0.7]),
        np.full(rows, 0.37), codes(np.linspace(-1.0, 1.0, TABLE_VALUES)),
        codes(np.linspace(-1.0, 1.0, TABLE_VALUES + 1))])
