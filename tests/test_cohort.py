"""Ingestion, filtering, imputation, splitting, and text round trips."""

import numpy as np
import pytest

from helpers import make_imputed, make_raw

from dosegate.cohort import (
    CANONICAL_COLUMNS,
    CANONICAL_SCHEMA,
    apply_imputation,
    cohort_to_text,
    filter_unbalanced,
    fit_imputation,
    load_schema,
    parse_cohort,
    plan_from_text,
    plan_to_text,
    read_cohort,
    split_cohort,
)
from dosegate.errors import (
    DegenerateSplitError,
    DomainError,
    EmptyCohortError,
    PlanIncompleteError,
    SchemaError,
    UnimputableVariableError,
)
from dosegate.records import Cohort, ImputedPatientRecord, Race

HEADER = "\t".join(CANONICAL_COLUMNS)


def _row(**values):
    cells = []
    for name in CANONICAL_COLUMNS:
        cells.append(str(values.get(name, "NA")))
    return "\t".join(cells)


def _text(*rows):
    return HEADER + "\n" + "\n".join(rows) + "\n"


def test_race_code_two_is_african_american():
    text = _text(_row(race="2", inr="2.5", therapeutic_dose_mg_week="30"))
    result = parse_cohort(text)
    assert result.cohort.records()[0].race == Race.AFRICAN_AMERICAN


def test_empty_height_cell_is_missing():
    text = _text(_row(height_cm="", inr="2.5", therapeutic_dose_mg_week="30"))
    assert parse_cohort(text).cohort.records()[0].height_cm is None


def test_inr_outside_window_excluded():
    text = _text(
        _row(inr="3.4", therapeutic_dose_mg_week="30"),
        _row(inr="2.5", therapeutic_dose_mg_week="30"),
    )
    result = parse_cohort(text)
    assert len(result.cohort.records()) == 1
    assert result.excluded_inr == 1
    assert result.n_data_rows == 2


def test_missing_dose_excluded_and_counted():
    text = _text(
        _row(inr="2.5", therapeutic_dose_mg_week="NA"),
        _row(inr="2.5", therapeutic_dose_mg_week="0"),
        _row(inr="2.5", therapeutic_dose_mg_week="28"),
    )
    result = parse_cohort(text)
    assert result.excluded_missing_dose == 2
    assert result.n_excluded == 2
    assert len(result.cohort.records()) == 1


def test_age_range_text_maps_to_decade_code():
    text = _text(
        _row(age_decade="50 - 59", inr="2.5", therapeutic_dose_mg_week="30"),
        _row(age_decade="90+", inr="2.5", therapeutic_dose_mg_week="30"),
        _row(age_decade="3", inr="2.5", therapeutic_dose_mg_week="30"),
    )
    records = parse_cohort(text).cohort.records()
    assert [r.age_decade for r in records] == [5, 9, 3]


def test_comma_delimited_accepted():
    header = ",".join(CANONICAL_COLUMNS)
    row = _row(inr="2.5", therapeutic_dose_mg_week="30").replace("\t", ",")
    result = parse_cohort(header + "\n" + row + "\n")
    assert len(result.cohort.records()) == 1


def test_no_header_rejected():
    with pytest.raises(SchemaError):
        parse_cohort("")


def test_all_rows_excluded_is_empty_cohort():
    text = _text(_row(inr="5.0", therapeutic_dose_mg_week="30"))
    with pytest.raises(EmptyCohortError):
        parse_cohort(text)


def test_schema_missing_required_column_rejected():
    schema = {"inr": "inr"}  # no dose mapping
    with pytest.raises(SchemaError):
        parse_cohort(_text(_row(inr="2.5", therapeutic_dose_mg_week="30")), schema)


def test_enzyme_derived_from_component_inducers():
    schema = dict(CANONICAL_SCHEMA)
    del schema["enzyme"]
    text = _text(
        _row(inr="2.5", therapeutic_dose_mg_week="30", rifampin="1",
             carbamazepine="0", phenytoin="0"),
        _row(inr="2.5", therapeutic_dose_mg_week="30", rifampin="0",
             carbamazepine="0", phenytoin="0"),
    )
    records = parse_cohort(text, schema).cohort.records()
    assert records[0].covariates["enzyme"] == 1
    assert records[1].covariates["enzyme"] == 0


def test_load_schema_round_trip(tmp_path):
    path = tmp_path / "schema.txt"
    path.write_text("Age=age_decade\nDose=therapeutic_dose_mg_week\nINR=inr\n")
    schema = load_schema(path)
    assert schema == {"Age": "age_decade", "Dose": "therapeutic_dose_mg_week",
                      "INR": "inr"}
    path.write_text("A=age_decade\nB=age_decade\n")
    with pytest.raises(SchemaError):
        load_schema(path)
    path.write_text("A=not_a_field\n")
    with pytest.raises(SchemaError):
        load_schema(path)


# --- filter_unbalanced ---

def test_filter_rare_minority_removed():
    records = ([make_raw(covariates={"rifampin": 0})] * 2230
               + [make_raw(covariates={"rifampin": 1})] * 3)
    assert "rifampin" in filter_unbalanced(records)


def test_filter_balanced_retained():
    records = ([make_raw(covariates={"aspirin": 0})] * 50
               + [make_raw(covariates={"aspirin": 1})] * 50)
    assert "aspirin" not in filter_unbalanced(records)


def test_filter_boundary_is_strict():
    # minority exactly 10% of non-missing stays
    records = ([make_raw(covariates={"diabetes": 0})] * 90
               + [make_raw(covariates={"diabetes": 1})] * 10)
    assert "diabetes" not in filter_unbalanced(records)
    records = ([make_raw(covariates={"diabetes": 0})] * 91
               + [make_raw(covariates={"diabetes": 1})] * 9)
    assert "diabetes" in filter_unbalanced(records)


def test_filter_unobserved_variable_removed():
    records = [make_raw(covariates={"macrolide": None}) for _ in range(20)]
    assert "macrolide" in filter_unbalanced(records)


# --- imputation ---

def test_mean_imputation_example():
    records = [make_raw(height_cm=160.0), make_raw(height_cm=None),
               make_raw(height_cm=180.0)]
    plan = fit_imputation(records)
    assert plan.means["height_cm"] == 170.0
    fixed = apply_imputation(plan, records[1])
    assert fixed.height_cm == 170.0


def test_mode_imputation_majority_and_tie():
    records = [make_raw(covariates={"aspirin": 0}),
               make_raw(covariates={"aspirin": 0}),
               make_raw(covariates={"aspirin": 1}),
               make_raw(covariates={"aspirin": None})]
    assert fit_imputation(records).modes["aspirin"] == 0
    tied = [make_raw(covariates={"aspirin": 0}), make_raw(covariates={"aspirin": 1})]
    assert fit_imputation(tied).modes["aspirin"] == 0  # tie -> smaller code


def test_complete_record_unchanged():
    record = make_raw()
    plan = fit_imputation([record, make_raw(age_decade=7)])
    fixed = apply_imputation(plan, record)
    assert fixed.height_cm == record.height_cm
    assert fixed.age_decade == record.age_decade
    assert fixed.race == record.race


def test_plan_mean_applied_to_missing_weight():
    records = [make_raw(weight_kg=81.3), make_raw(weight_kg=None)]
    plan = fit_imputation(records)
    assert apply_imputation(plan, records[1]).weight_kg == 81.3


def test_unimputable_variable_named():
    records = [make_raw(height_cm=None), make_raw(height_cm=None)]
    with pytest.raises(UnimputableVariableError) as info:
        fit_imputation(records)
    assert info.value.variable == "height_cm"


def test_incomplete_plan_rejected():
    plan = fit_imputation([make_raw(), make_raw(age_decade=3)])
    broken_means = dict(plan.means)
    del broken_means["height_cm"]
    clone = type(plan)(means=broken_means, modes=plan.modes,
                       provenance=plan.provenance)
    with pytest.raises(PlanIncompleteError):
        apply_imputation(clone, make_raw(height_cm=None))


def test_imputation_idempotent():
    rng = np.random.default_rng(12)
    records = [make_raw(height_cm=None if rng.random() < 0.3 else 150.0 + i,
                        covariates={"chf": None if rng.random() < 0.3 else 1})
               for i in range(40)]
    plan = fit_imputation(records)
    once = [apply_imputation(plan, r) for r in records]
    twice = [apply_imputation(plan, r) for r in once]
    assert once == twice


def test_plan_ignores_test_rows():
    train_rows = [make_raw(height_cm=160.0 + i) for i in range(10)]
    plan_a = fit_imputation(train_rows)
    # perturbing records outside the training split cannot matter
    plan_b = fit_imputation(list(train_rows))
    assert plan_a.means == plan_b.means
    assert plan_a.modes == plan_b.modes


def test_plan_text_round_trip():
    plan = fit_imputation([make_raw(), make_raw(age_decade=3, height_cm=155.0)])
    restored = plan_from_text(plan_to_text(plan))
    assert restored.means == plan.means
    assert restored.modes == plan.modes


@pytest.mark.parametrize("line", ["mean heigth_cm 170", "mode raec 2", "mode height_cm 170",
                                  "mean race 1"])
def test_plan_statistic_for_no_such_variable_rejected(line):
    with pytest.raises(SchemaError):
        plan_from_text(f"provenance train\n{line}\n")


# --- split ---

def test_split_floor_rule_at_paper_size():
    records = list(range(4237))
    train, test = split_cohort(records, 0.5, seed=0)
    assert (len(train), len(test)) == (2118, 2119)


def test_split_is_partition():
    records = [make_raw(age_decade=1 + i % 9) for i in range(4)]
    train, test = split_cohort(records, 0.5, seed=5)
    assert len(train) == 2 and len(test) == 2
    combined = list(train) + list(test)
    assert sorted(map(id, combined)) == sorted(map(id, records))


def test_split_seed_determinism():
    records = list(range(100))
    assert split_cohort(records, 0.3, seed=9) == split_cohort(records, 0.3, seed=9)
    assert split_cohort(records, 0.3, seed=9) != split_cohort(records, 0.3, seed=10)


def test_split_degenerate_sides_rejected():
    with pytest.raises(DegenerateSplitError):
        split_cohort([make_raw()], 0.5, seed=0)
    with pytest.raises(DegenerateSplitError):
        split_cohort([make_raw(), make_raw()], 0.01, seed=0)


# --- canonical text ---

def test_cohort_text_round_trip(tmp_path):
    rng = np.random.default_rng(77)
    records = [
        make_raw(
            height_cm=None if rng.random() < 0.2 else float(rng.uniform(150, 200)),
            weight_kg=float(rng.uniform(40, 150)),
            race=None if rng.random() < 0.1 else Race(int(rng.integers(1, 4))),
            therapeutic_dose_mg_week=float(rng.uniform(5, 80)),
            covariates={"aspirin": None if rng.random() < 0.5 else 1},
        )
        for _ in range(25)
    ]
    path = tmp_path / "cohort.tsv"
    path.write_text(cohort_to_text(records), encoding="ascii")
    restored = read_cohort(path).cohort.records()
    assert list(restored) == records


def test_unsplittable_row_is_schema_error():
    # a bare carriage return inside an unquoted field stops the csv module
    text = _text(_row(age_decade="5\r6", inr="2.5", therapeutic_dose_mg_week="30"))
    with pytest.raises(SchemaError):
        parse_cohort(text)


def test_repeated_coded_cells_parse_alike():
    rows = [_row(age_decade=age, race=race, gender=gender, target_inr=target, aspirin=flag,
                 inr="2.5", therapeutic_dose_mg_week="30")
            for age, race, gender, target, flag in (
                ("55", "asian", "m", "2-3", "yes"), ("5", "3", "1", "2.5", "1"),
                ("55", "asian", "m", "2-3", "yes"), ("bad", "x", "?", "-1", "maybe"),
                ("bad", "x", "?", "-1", "maybe"))]
    records = parse_cohort(_text(*rows)).cohort.records()
    assert records[0] == records[1] == records[2]
    assert records[3] == records[4]
    assert (records[3].age_decade, records[3].race, records[3].gender,
            records[3].target_inr, records[3].covariates["aspirin"]) == (None,) * 5


# --- records and columns ---

@pytest.mark.parametrize("field", ["inr", "target_inr", "therapeutic_dose_mg_week"])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_records_reject_non_finite_values(field, value):
    with pytest.raises(DomainError):
        make_raw(**{field: value})
    with pytest.raises(DomainError):
        make_imputed(**{field: value})


def test_cohort_columns_round_trip_records():
    records = [make_raw(), make_raw(height_cm=None, race=Race.ASIAN, gender=None),
               make_raw(age_decade=9, covariates={"aspirin": None, "chf": 1})]
    cohort = Cohort.from_records(records)
    assert len(cohort) == 3
    assert np.isnan(cohort["height_cm"][1]) and cohort["race"][1] == 3.0
    assert cohort.records() == tuple(records)
    assert cohort.take([2, 0]).records() == (records[2], records[0])
    assert len(Cohort.from_records([])) == 0


def test_imputation_of_a_record_matches_its_cohort():
    records = [make_raw(height_cm=None, covariates={"chf": None}), make_raw(age_decade=3)]
    plan = fit_imputation(records)
    filled = apply_imputation(plan, Cohort.from_records(records))
    assert filled.records(ImputedPatientRecord) == tuple(
        apply_imputation(plan, r) for r in records)
    # a list or tuple of records is a batch, imputed as its cohort
    for batch in (records, tuple(records)):
        assert np.array_equal(apply_imputation(plan, batch).columns, filled.columns,
                              equal_nan=True)
