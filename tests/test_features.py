"""Feature encoding: z-scores, indicator columns, the fitted scaler."""

import numpy as np
import pytest

from helpers import make_patient, stack

from dosegate.errors import DataError, SchemaError
from dosegate.features import default_feature_names, encode_features, feature_rows
from dosegate.records import Race


def test_population_zscore_example():
    cohort = stack([make_patient(height_cm=h) for h in (160.0, 170.0, 180.0)])
    x, means, _ = encode_features(cohort, ("height_cm",))
    # population sigma: sqrt(200/3); hand-derived column
    expected = np.array([-1.224744871391589, 0.0, 1.224744871391589])
    assert x[:, 0] == pytest.approx(expected, abs=1e-12)
    assert means[0] == 170.0


def test_race_indicator_columns():
    cohort = stack([make_patient(race=Race.ASIAN), make_patient(race=Race.WHITE),
                    make_patient(race=Race.AFRICAN_AMERICAN)])
    x, _, _ = encode_features(cohort, ("race_african_american", "race_asian"))
    assert x.tolist() == [[0.0, 1.0], [0.0, 0.0], [1.0, 0.0]]


def test_binary_columns_not_scaled():
    cohort = stack([make_patient(aspirin=1), make_patient(aspirin=0), make_patient(aspirin=1)])
    x, means, scales = encode_features(cohort, ("aspirin", "gender"))
    assert set(np.unique(x)) <= {0.0, 1.0}
    assert np.all(means == 0.0) and np.all(scales == 1.0)


def test_stored_scaler_reproduces_fit_matrix_bitwise():
    # decision_values standardizes raw rows with the model's stored scaler,
    # which must give the training matrix bit for bit
    rng = np.random.default_rng(4)
    cohort = stack([make_patient(height_cm=float(rng.uniform(150, 200)),
                                 weight_kg=float(rng.uniform(50, 120)))
                    for _ in range(20)])
    names = ("height_cm", "weight_kg", "gender")
    x, means, scales = encode_features(cohort, names)
    replayed = (feature_rows(cohort, names) - means) / scales
    assert np.array_equal(x, replayed)


def test_constant_column_sigma_one():
    x, _, scales = encode_features(stack([make_patient(height_cm=170.0)] * 5), ("height_cm",))
    assert scales[0] == 1.0
    assert np.all(x == 0.0)


def test_unknown_feature_rejected():
    with pytest.raises(SchemaError):
        encode_features(make_patient(), ("bogus_feature",))


def test_missing_value_rejected():
    with pytest.raises(DataError):
        feature_rows(make_patient(height_cm=None), ("height_cm",))


def test_default_features_drop_enzyme_and_rare():
    # enzyme is never a classifier feature; rifampin here is too rare
    names = default_feature_names(stack([make_patient(enzyme=1, rifampin=0)] * 99
                                        + [make_patient(enzyme=1, rifampin=1)]))
    assert "enzyme" not in names
    assert "rifampin" not in names
    assert "age_decade" in names and "race_asian" in names
    # observed inr and the dose target are never features
    assert "inr" not in names and "therapeutic_dose_mg_week" not in names

