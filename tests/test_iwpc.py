"""Clinical dose model: published coefficients and hand-checked values."""

import pytest

from helpers import make_patient, stack

from dosegate.errors import DomainError, NonPhysicalDoseError
from dosegate.iwpc import (
    DEFAULT_COEFFICIENTS,
    IwpcCoefficients,
    load_coefficients,
    predict_weekly_dose,
    sqrt_weekly_doses,
)
from dosegate.records import Race


def _sqrt_dose(patient, coeffs=DEFAULT_COEFFICIENTS):
    return sqrt_weekly_doses(patient, coeffs)[0]


def test_published_coefficient_values():
    c = DEFAULT_COEFFICIENTS
    assert (c.intercept, c.age_per_decade) == (4.0376, -0.2546)
    assert (c.height_per_cm, c.weight_per_kg) == (0.0118, 0.0134)
    assert (c.asian, c.black, c.race_missing) == (-0.6752, 0.406, 0.0443)
    assert (c.enzyme, c.amiodarone) == (1.2799, -0.5695)


def test_hand_computed_white_patient():
    record = make_patient(age_decade=5, height_cm=170.0, weight_kg=80.0,
                          race=Race.WHITE)
    sqrt_dose = _sqrt_dose(record, DEFAULT_COEFFICIENTS)
    assert sqrt_dose == pytest.approx(5.8426, abs=1e-10)
    assert predict_weekly_dose(record, DEFAULT_COEFFICIENTS) == pytest.approx(
        34.136, abs=5e-4)


def test_hand_computed_asian_patient():
    record = make_patient(age_decade=6, height_cm=160.0, weight_kg=55.0,
                          race=Race.ASIAN)
    assert _sqrt_dose(record, DEFAULT_COEFFICIENTS) == pytest.approx(
        4.4598, abs=1e-10)
    assert predict_weekly_dose(record, DEFAULT_COEFFICIENTS) == pytest.approx(
        19.890, abs=5e-4)


def test_intercept_only_probe():
    # zeroed covariate probe: every term but the intercept vanishes
    record = make_patient(age_decade=1, height_cm=100.0, weight_kg=20.0,
                          race=Race.WHITE)
    coeffs = IwpcCoefficients(age_per_decade=0.0, height_per_cm=0.0,
                              weight_per_kg=0.0)
    assert _sqrt_dose(record, coeffs) == pytest.approx(4.0376)
    assert predict_weekly_dose(record, coeffs) == pytest.approx(16.302, abs=5e-4)


def test_square_relation():
    import numpy as np
    rng = np.random.default_rng(6)
    for _ in range(30):
        record = make_patient(
            age_decade=int(rng.integers(1, 10)),
            height_cm=float(rng.uniform(140, 200)),
            weight_kg=float(rng.uniform(40, 150)),
            race=Race(int(rng.integers(1, 4))),
            enzyme=int(rng.integers(0, 2)),
            amiodarone=int(rng.integers(0, 2)),
        )
        s = _sqrt_dose(record, DEFAULT_COEFFICIENTS)
        d = predict_weekly_dose(record, DEFAULT_COEFFICIENTS)
        assert d == pytest.approx(s * s, rel=1e-12)


def test_monotone_in_weight_and_age():
    base = make_patient()
    heavier = make_patient(weight_kg=base["weight_kg"][0] + 10.0)
    older = make_patient(age_decade=base["age_decade"][0] + 2)
    dose = predict_weekly_dose(base, DEFAULT_COEFFICIENTS)
    assert predict_weekly_dose(heavier, DEFAULT_COEFFICIENTS) > dose
    assert predict_weekly_dose(older, DEFAULT_COEFFICIENTS) < dose


def test_race_terms_mutually_exclusive():
    kwargs = dict(age_decade=5, height_cm=170.0, weight_kg=80.0)
    white = _sqrt_dose(make_patient(race=Race.WHITE, **kwargs), DEFAULT_COEFFICIENTS)
    asian = _sqrt_dose(make_patient(race=Race.ASIAN, **kwargs), DEFAULT_COEFFICIENTS)
    black = _sqrt_dose(
        make_patient(race=Race.AFRICAN_AMERICAN, **kwargs), DEFAULT_COEFFICIENTS)
    assert asian == pytest.approx(white - 0.6752)
    assert black == pytest.approx(white + 0.406)


def test_non_physical_dose_raises():
    # drive the linear predictor negative with a hostile override
    coeffs = IwpcCoefficients(intercept=-10.0)
    with pytest.raises(NonPhysicalDoseError):
        _sqrt_dose(make_patient(), coeffs)


def test_coefficient_file_override_needs_flag(tmp_path):
    path = tmp_path / "coeffs.txt"
    path.write_text("intercept=4.0376\nage_per_decade=-0.2546\n"
                    "height_per_cm=0.0118\nweight_per_kg=0.0134\n"
                    "asian=-0.6752\nblack=0.406\nrace_missing=0.0443\n"
                    "enzyme=1.2799\namiodarone=-0.5695\n")
    assert load_coefficients(path) == DEFAULT_COEFFICIENTS

    path.write_text("intercept=9.9\nage_per_decade=-0.2546\n"
                    "height_per_cm=0.0118\nweight_per_kg=0.0134\n"
                    "asian=-0.6752\nblack=0.406\nrace_missing=0.0443\n"
                    "enzyme=1.2799\namiodarone=-0.5695\n")
    with pytest.raises(DomainError):
        load_coefficients(path)
    assert load_coefficients(path, allow_override=True).intercept == 9.9


def _scalar_sqrt_dose(patient: dict, c):
    """The published formula one patient at a time, terms added in order."""
    value = (c.intercept + c.age_per_decade * patient["age_decade"]
             + c.height_per_cm * patient["height_cm"] + c.weight_per_kg * patient["weight_kg"])
    if patient["race"] is None:
        value += c.race_missing
    elif patient["race"] == Race.ASIAN:
        value += c.asian
    elif patient["race"] == Race.AFRICAN_AMERICAN:
        value += c.black
    value += c.enzyme * patient["enzyme"] + c.amiodarone * patient["amiodarone"]
    return value


def test_array_doses_equal_the_scalar_formula_bit_for_bit():
    import numpy as np

    from dosegate.iwpc import sqrt_weekly_doses, weekly_doses

    rng = np.random.default_rng(11)
    races = (Race.WHITE, Race.AFRICAN_AMERICAN, Race.ASIAN, None)
    patients = [dict(age_decade=int(rng.integers(1, 10)),
                     height_cm=float(rng.uniform(140, 200)),
                     weight_kg=float(rng.uniform(40, 150)), race=races[i % 4],
                     enzyme=int(rng.integers(0, 2)), amiodarone=int(rng.integers(0, 2)))
                for i in range(400)]
    cohorts = [make_patient(**fields) for fields in patients]
    roots = [_scalar_sqrt_dose(fields, DEFAULT_COEFFICIENTS) for fields in patients]
    assert sqrt_weekly_doses(stack(cohorts)).tolist() == roots
    assert weekly_doses(stack(cohorts)).tolist() == [v * v for v in roots]
    assert [predict_weekly_dose(c) for c in cohorts] == [v * v for v in roots]
