"""Ingestion, filtering, imputation, splitting, and text round trips."""

import csv
import sys
import tracemalloc

import numpy as np
import pytest

from helpers import make_patient, stack
from reference_cohort import reference_parse_cohort

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
from dosegate.records import (
    AGE_DECADE_RANGE,
    COLUMN_INDEX,
    HEIGHT_BOUNDS_CM,
    WEIGHT_BOUNDS_KG,
    Cohort,
    Race,
)
from dosegate.synth import generate_synthetic_cohort

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
    assert result.cohort["race"].tolist() == [Race.AFRICAN_AMERICAN]


def test_empty_height_cell_is_missing():
    text = _text(_row(height_cm="", inr="2.5", therapeutic_dose_mg_week="30"))
    assert np.isnan(parse_cohort(text).cohort["height_cm"]).all()


def test_inr_outside_window_excluded():
    text = _text(
        _row(inr="3.4", therapeutic_dose_mg_week="30"),
        _row(inr="2.5", therapeutic_dose_mg_week="30"),
    )
    result = parse_cohort(text)
    assert len(result.cohort) == 1
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
    assert len(result.cohort) == 1


def test_age_range_text_maps_to_decade_code():
    text = _text(
        _row(age_decade="50 - 59", inr="2.5", therapeutic_dose_mg_week="30"),
        _row(age_decade="90+", inr="2.5", therapeutic_dose_mg_week="30"),
        _row(age_decade="3", inr="2.5", therapeutic_dose_mg_week="30"),
    )
    assert parse_cohort(text).cohort["age_decade"].tolist() == [5, 9, 3]


def test_comma_delimited_accepted():
    header = ",".join(CANONICAL_COLUMNS)
    row = _row(inr="2.5", therapeutic_dose_mg_week="30").replace("\t", ",")
    result = parse_cohort(header + "\n" + row + "\n")
    assert len(result.cohort) == 1


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
    assert parse_cohort(text, schema).cohort["enzyme"].tolist() == [1, 0]


def test_load_schema_round_trip(tmp_path):
    path = tmp_path / "schema.txt"
    path.write_text("Age=age_decade\nDose=therapeutic_dose_mg_week\nINR=inr\n")
    schema = load_schema(path)
    assert schema == {"Age": "age_decade", "Dose": "therapeutic_dose_mg_week",
                      "INR": "inr"}
    path.write_text("A=age_decade\nB=age_decade\n")
    with pytest.raises(SchemaError):
        load_schema(path)
    path.write_text("Age=age_decade\nAge=height_cm\nDose=therapeutic_dose_mg_week\nINR=inr\n")
    with pytest.raises(SchemaError):
        load_schema(path)
    path.write_text("A=not_a_field\n")
    with pytest.raises(SchemaError):
        load_schema(path)


# --- filter_unbalanced ---

def _flags(name, zeros, ones):
    """A cohort whose flag ``name`` is 0 in ``zeros`` rows, then 1 in ``ones``."""
    return stack([make_patient(**{name: 0})] * zeros + [make_patient(**{name: 1})] * ones)


def test_filter_rare_minority_removed():
    assert "rifampin" in filter_unbalanced(_flags("rifampin", 2230, 3))


def test_filter_balanced_retained():
    assert "aspirin" not in filter_unbalanced(_flags("aspirin", 50, 50))


def test_filter_boundary_is_strict():
    # minority exactly 10% of non-missing stays
    assert "diabetes" not in filter_unbalanced(_flags("diabetes", 90, 10))
    assert "diabetes" in filter_unbalanced(_flags("diabetes", 91, 9))


def test_filter_unobserved_variable_removed():
    assert "macrolide" in filter_unbalanced(stack([make_patient(macrolide=None)] * 20))


# --- imputation ---

def test_mean_imputation_example():
    cohort = stack([make_patient(height_cm=160.0), make_patient(height_cm=None),
                    make_patient(height_cm=180.0)])
    plan = fit_imputation(cohort)
    assert plan.means["height_cm"] == 170.0
    assert apply_imputation(plan, cohort)["height_cm"].tolist() == [160.0, 170.0, 180.0]


def test_mode_imputation_majority_and_tie():
    cohort = stack([make_patient(aspirin=0), make_patient(aspirin=0),
                    make_patient(aspirin=1), make_patient(aspirin=None)])
    assert fit_imputation(cohort).modes["aspirin"] == 0
    tied = stack([make_patient(aspirin=0), make_patient(aspirin=1)])
    assert fit_imputation(tied).modes["aspirin"] == 0  # tie -> smaller code


def test_complete_rows_unchanged():
    cohort = stack([make_patient(), make_patient(age_decade=7)])
    fixed = apply_imputation(fit_imputation(cohort), cohort)
    assert np.array_equal(fixed.columns, cohort.columns)


def test_plan_mean_applied_to_missing_weight():
    cohort = stack([make_patient(weight_kg=81.3), make_patient(weight_kg=None)])
    plan = fit_imputation(cohort)
    assert apply_imputation(plan, cohort)["weight_kg"].tolist() == [81.3, 81.3]


def test_unimputable_variable_named():
    with pytest.raises(UnimputableVariableError) as info:
        fit_imputation(stack([make_patient(height_cm=None)] * 2))
    assert info.value.variable == "height_cm"


def test_incomplete_plan_rejected():
    plan = fit_imputation(stack([make_patient(), make_patient(age_decade=3)]))
    broken_means = dict(plan.means)
    del broken_means["height_cm"]
    clone = type(plan)(means=broken_means, modes=plan.modes,
                       provenance=plan.provenance)
    with pytest.raises(PlanIncompleteError):
        apply_imputation(clone, make_patient(height_cm=None))


def test_imputation_idempotent():
    rng = np.random.default_rng(12)
    cohort = stack([make_patient(height_cm=None if rng.random() < 0.3 else 150.0 + i,
                                 chf=None if rng.random() < 0.3 else 1)
                    for i in range(40)])
    plan = fit_imputation(cohort)
    once = apply_imputation(plan, cohort)
    assert not np.isnan(once["height_cm"]).any() and not np.isnan(once["chf"]).any()
    assert np.array_equal(apply_imputation(plan, once).columns, once.columns)


def test_imputing_one_row_matches_its_cohort():
    cohort = stack([make_patient(height_cm=None, chf=None), make_patient(age_decade=3)])
    plan = fit_imputation(cohort)
    filled = apply_imputation(plan, cohort)
    for i in range(len(cohort)):
        one = apply_imputation(plan, cohort.take([i]))
        assert np.array_equal(one.columns, filled.take([i]).columns)


def test_plan_ignores_test_rows():
    train_rows = stack([make_patient(height_cm=160.0 + i) for i in range(10)])
    plan_a = fit_imputation(train_rows)
    # perturbing rows outside the training split cannot matter
    with_test = stack([train_rows, make_patient(height_cm=250.0, age_decade=9)])
    plan_b = fit_imputation(with_test.take(slice(0, 10)))
    assert plan_a.means == plan_b.means
    assert plan_a.modes == plan_b.modes


def test_plan_text_round_trip():
    plan = fit_imputation(stack([make_patient(), make_patient(age_decade=3, height_cm=155.0)]))
    restored = plan_from_text(plan_to_text(plan))
    assert restored.means == plan.means
    assert restored.modes == plan.modes


@pytest.mark.parametrize("line", ["mean heigth_cm 170", "mode raec 2", "mode height_cm 170",
                                  "mean race 1"])
def test_plan_statistic_for_no_such_variable_rejected(line):
    with pytest.raises(SchemaError):
        plan_from_text(f"provenance train\n{line}\n")


# --- split ---

def _numbered(n):
    """A cohort whose row i has height 100 + i / 100, so a row names itself."""
    return stack([make_patient(height_cm=100.0 + i / 100) for i in range(n)])


def test_split_floor_rule_at_paper_size():
    cohort = Cohort(np.repeat(make_patient().columns, 4237, axis=1))
    train, test = split_cohort(cohort, 0.5, seed=0)
    assert (len(train), len(test)) == (2118, 2119)


def test_split_is_partition():
    cohort = _numbered(4)
    train, test = split_cohort(cohort, 0.5, seed=5)
    assert len(train) == 2 and len(test) == 2
    combined = np.concatenate([train["height_cm"], test["height_cm"]])
    assert sorted(combined.tolist()) == cohort["height_cm"].tolist()


def test_split_seed_determinism():
    cohort = _numbered(100)

    def heights(seed):
        return [side["height_cm"].tolist() for side in split_cohort(cohort, 0.3, seed=seed)]

    assert heights(9) == heights(9)
    assert heights(9) != heights(10)


def test_split_degenerate_sides_rejected():
    with pytest.raises(DegenerateSplitError):
        split_cohort(make_patient(), 0.5, seed=0)
    with pytest.raises(DegenerateSplitError):
        split_cohort(stack([make_patient()] * 2), 0.01, seed=0)


# --- canonical text ---

def _same_columns(a: Cohort, b: Cohort) -> bool:
    """Bit-equal columns, NaN in the same places."""
    return a.columns.shape == b.columns.shape and a.columns.tobytes() == b.columns.tobytes()


def test_cohort_text_round_trip(tmp_path):
    rng = np.random.default_rng(77)
    cohort = stack([
        make_patient(
            height_cm=None if rng.random() < 0.2 else float(rng.uniform(150, 200)),
            weight_kg=float(rng.uniform(40, 150)),
            race=None if rng.random() < 0.1 else Race(int(rng.integers(1, 4))),
            therapeutic_dose_mg_week=float(rng.uniform(5, 80)),
            aspirin=None if rng.random() < 0.5 else 1,
        )
        for _ in range(25)
    ])
    path = tmp_path / "cohort.tsv"
    path.write_text(cohort_to_text(cohort), encoding="ascii")
    assert _same_columns(read_cohort(path).cohort, cohort)


def test_overflowing_target_inr_range_is_missing():
    # the midpoint of "1e308-1.7e308" is not finite, so the cell is missing
    # and the written cohort parses back to the same columns
    text = _text(_row(target_inr="1e308-1.7e308", inr="2.5", therapeutic_dose_mg_week="30"))
    cohort = parse_cohort(text).cohort
    assert np.isnan(cohort["target_inr"]).all()
    assert _same_columns(parse_cohort(cohort_to_text(cohort)).cohort, cohort)


def test_unsplittable_row_is_schema_error():
    # a bare carriage return inside an unquoted field stops the csv module
    text = _text(_row(age_decade="5\r6", inr="2.5", therapeutic_dose_mg_week="30"))
    with pytest.raises(SchemaError):
        parse_cohort(text)


def test_field_over_csv_field_limit_is_schema_error():
    # quote-free text is split without csv, but csv's field limit holds
    limit = csv.field_size_limit()
    text = _text(_row(inr="2.5", therapeutic_dose_mg_week="30", race="x" * (limit + 1)))
    with pytest.raises(SchemaError, match="field larger than field limit"):
        parse_cohort(text)


def test_long_line_of_short_fields_parses_as_reference():
    limit = csv.field_size_limit()
    text = _text(*[_row(inr="2.5", therapeutic_dose_mg_week="30", race="x" * (limit // 2))] * 3)
    result, reference = parse_cohort(text), reference_parse_cohort(text)
    assert _same_columns(result.cohort, reference.cohort)
    assert result.n_data_rows == reference.n_data_rows == 3


def _parse_outcome(parse, text):
    """The parsed columns and counts, or the error's type and message."""
    try:
        result = parse(text)
    except SchemaError as exc:
        return type(exc), str(exc)
    return (result.cohort.columns.shape, result.cohort.columns.tobytes(),
            result.n_data_rows, result.excluded_missing_dose, result.excluded_inr)


@pytest.mark.parametrize("offset", [0, 1, 7, 65536, 65537, 131071])
def test_a_line_over_the_field_limit_needs_csv(offset):
    # the split must give csv's reading of a line at and over the limit
    limit = csv.field_size_limit()
    lead = "a" * (offset - 1) + "\n" if offset else ""  # the long line starts at offset
    for length in (limit, limit + 1):
        for tail in ("", "\n", "\nb"):
            text = lead + "x" * length + tail
            assert _parse_outcome(parse_cohort, text) == _parse_outcome(
                reference_parse_cohort, text)


@pytest.mark.parametrize("pad", ["\x1c", "\x1d", "\x1e", "\x1f"])
def test_float_cell_padded_with_separator_codes_reads_its_number(pad):
    # float() rejects these four code points; .strip() removes them
    text = _text(_row(inr="2.5", therapeutic_dose_mg_week=f"{pad}1.5"),
                 _row(inr="2.5", therapeutic_dose_mg_week=f"2.5{pad}"))
    assert parse_cohort(text).cohort["therapeutic_dose_mg_week"].tolist() == [1.5, 2.5]


def test_text_of_many_blocks_parses_as_reference():
    # later blocks bring coded texts the earlier blocks' tables lack, and
    # blank, short and long rows sit on both sides of a block boundary
    lines = cohort_to_text(generate_synthetic_cohort(2500, 3)).splitlines()
    header = lines[0].split("\t")
    for i, changes in ((1500, {"race": "asian", "aspirin": "yes"}),
                       (2400, {"age_decade": "55", "gender": "m", "target_inr": "2-3"})):
        cells = lines[i].split("\t")
        for name, value in changes.items():
            cells[header.index(name)] = value
        lines[i] = "\t".join(cells)
    lines[1023:1027] = ["", "\t" * 3, "\t".join(lines[1023].split("\t")[:5]),
                        lines[1024] + "\t9\tx", " ", lines[1025]]
    for text in ("\n".join(lines), "\n".join(lines) + "\n", "\n".join(lines[:1025]) + "\n"):
        result, reference = parse_cohort(text), reference_parse_cohort(text)
        assert _same_columns(result.cohort, reference.cohort)
        assert result.n_data_rows == reference.n_data_rows
        assert result.excluded_inr == reference.excluded_inr


def test_parse_peak_memory_at_most_reference():
    # the split streams one line at a time; csv reads a full copy of the text
    text = cohort_to_text(generate_synthetic_cohort(4237, 1000))
    peaks = []
    for parse in (parse_cohort, reference_parse_cohort):
        tracemalloc.start()
        try:
            parse(text)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= peaks[1]


def test_repeated_coded_cells_parse_alike():
    rows = [_row(age_decade=age, race=race, gender=gender, target_inr=target, aspirin=flag,
                 inr="2.5", therapeutic_dose_mg_week="30")
            for age, race, gender, target, flag in (
                ("55", "asian", "m", "2-3", "yes"), ("5", "3", "1", "2.5", "1"),
                ("55", "asian", "m", "2-3", "yes"), ("bad", "x", "?", "-1", "maybe"),
                ("bad", "x", "?", "-1", "maybe"))]
    cohort = parse_cohort(_text(*rows)).cohort
    rows = [cohort.take([i]) for i in range(len(cohort))]
    assert _same_columns(rows[0], rows[1]) and _same_columns(rows[0], rows[2])
    assert _same_columns(rows[3], rows[4])
    assert np.isnan([rows[3][name][0] for name in (
        "age_decade", "race", "gender", "target_inr", "aspirin")]).all()


# --- the Cohort and its rules ---

def test_cohort_columns_and_take():
    cohort = stack([make_patient(), make_patient(height_cm=None, race=Race.ASIAN, gender=None),
                    make_patient(age_decade=9, aspirin=None, chf=1)])
    assert len(cohort) == 3
    assert cohort.columns.shape == (len(CANONICAL_COLUMNS), 3)
    assert np.isnan(cohort["height_cm"][1]) and cohort["race"][1] == 3.0
    assert cohort.take([2, 0])["age_decade"].tolist() == [9.0, 5.0]
    assert len(cohort.take([])) == 0


_TINY = 5e-324  # the smallest positive float
_HUGE = sys.float_info.max


# field, a value its rule accepts, and the value just past it, which the
# rule rejects; None is a missing value
@pytest.mark.parametrize("field, accepted, rejected", [
    ("age_decade", AGE_DECADE_RANGE[0], AGE_DECADE_RANGE[0] - 1),
    ("age_decade", AGE_DECADE_RANGE[1], AGE_DECADE_RANGE[1] + 1),
    ("age_decade", None, 4.5),
    ("height_cm", HEIGHT_BOUNDS_CM[0], np.nextafter(HEIGHT_BOUNDS_CM[0], 0.0)),
    ("height_cm", HEIGHT_BOUNDS_CM[1], np.nextafter(HEIGHT_BOUNDS_CM[1], np.inf)),
    ("height_cm", None, -np.inf),
    ("weight_kg", WEIGHT_BOUNDS_KG[0], np.nextafter(WEIGHT_BOUNDS_KG[0], 0.0)),
    ("weight_kg", WEIGHT_BOUNDS_KG[1], np.nextafter(WEIGHT_BOUNDS_KG[1], np.inf)),
    ("weight_kg", None, np.inf),
    ("race", 1, 0),
    ("race", 3, 4),
    ("race", None, 1.5),
    ("gender", 0, -1),
    ("gender", 1, 2),
    ("gender", None, 0.5),
    ("aspirin", 0, -1),
    ("aspirin", 1, 2),
    ("valve_replacement", None, 0.5),
    ("inr", _TINY, 0.0),
    ("inr", _HUGE, np.inf),
    ("inr", None, -1.0),
    ("target_inr", _TINY, 0.0),
    ("target_inr", _HUGE, np.inf),
    ("target_inr", None, -_TINY),
    ("therapeutic_dose_mg_week", _TINY, 0.0),
    ("therapeutic_dose_mg_week", _HUGE, np.inf),
    ("therapeutic_dose_mg_week", 34.0, None),
])
def test_cohort_checks_each_rule_at_its_boundary(field, accepted, rejected):
    patient = make_patient(**{field: accepted})
    assert np.array_equal(patient[field], [np.nan if accepted is None else accepted],
                          equal_nan=True)
    with pytest.raises(DomainError, match=f"^{field} "):
        make_patient(**{field: rejected})


def test_cohort_names_the_first_bad_value_in_canonical_order():
    columns = stack([make_patient(), make_patient()]).columns.copy()
    columns[COLUMN_INDEX["weight_kg"], 0] = 10.0
    columns[COLUMN_INDEX["height_cm"], 1] = 50.0
    columns[COLUMN_INDEX["height_cm"], 0] = 60.0
    with pytest.raises(DomainError, match=r"^height_cm 60\.0 outside sanity bounds "
                                          r"\(100\.0, 250\.0\)$"):
        Cohort(columns)
    with pytest.raises(DomainError, match="^age_decade must be an integer code 1..9, got 12$"):
        make_patient(age_decade=12, height_cm=50.0)

