"""Property tests for the text readers: model, cohort, plan, schema,
config, kernel spec and the `dose` command's patient pairs.

Arbitrary or damaged text fails only with the package's own errors
(which the CLI maps to exit codes), and write -> read round-trips
bit for bit for models, plans and cohorts.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dosegate.cli import config_from_text, patient_cohort
from dosegate.cohort import (
    CANONICAL_COLUMNS,
    ImputationPlan,
    cohort_to_text,
    parse_cohort,
    plan_from_text,
    plan_to_text,
    schema_from_text,
)
from dosegate.errors import DosegateError, EmptyCohortError, SchemaError
from dosegate.kernels import KernelSpec
from dosegate.model_io import model_from_text, model_to_text
from dosegate.records import BINARY_COVARIATES, Cohort
from dosegate.svm import SvmModel

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

KERNELS = (
    KernelSpec(),
    KernelSpec(variant="linear"),
    KernelSpec(variant="rbf", delta=0.75),
    KernelSpec(variant="sigmoid", theta=-0.5),
    KernelSpec(variant="anova", sigma=2.0, d=2, n_dims=1),
)

floats = st.floats(allow_nan=False)  # infinities too, which only some fields accept
finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def models(draw, values=floats, scales=floats, alphas=floats):
    """Models whose scales and multipliers are drawn from ``scales`` and
    ``alphas``, and every other float from ``values``."""
    d = draw(st.integers(1, 4))
    n_sv = draw(st.integers(0, 6))
    vec = st.lists(values, min_size=d, max_size=d)
    return SvmModel(
        kernel=draw(st.sampled_from(KERNELS)),
        support_vectors=np.array(draw(st.lists(vec, min_size=n_sv, max_size=n_sv)),
                                 dtype=float).reshape(n_sv, d),
        alphas=np.array(draw(st.lists(alphas, min_size=n_sv, max_size=n_sv)), dtype=float),
        sv_labels=np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                         min_size=n_sv, max_size=n_sv)), dtype=float),
        bias=draw(values),
        feature_names=tuple(draw(st.lists(
            st.text(alphabet="abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1, max_size=8),
            min_size=d, max_size=d))),
        scaler_means=np.array(draw(st.lists(values, min_size=d, max_size=d))),
        scaler_scales=np.array(draw(st.lists(scales, min_size=d, max_size=d))),
        converged=draw(st.booleans()),
        max_kkt_violation=draw(values),
        dual_objective=draw(values),
    )


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _trainable(model: SvmModel) -> bool:
    """Whether train could have written the model: a finite scaler, bias,
    multipliers and support vectors, with every scale and multiplier > 0."""
    arrays = (model.scaler_means, model.scaler_scales, model.alphas, model.support_vectors)
    return bool(all(np.isfinite(a).all() for a in arrays) and np.isfinite(model.bias)
                and (model.scaler_scales > 0).all() and (model.alphas > 0).all())


# models train could write, and models it could not
trainable_models = models(values=finite, scales=positive, alphas=positive)
untrainable_models = models().filter(lambda model: not _trainable(model))


@PROPERTY
@given(trainable_models)
def test_model_text_round_trips_bit_exactly(model):
    restored = model_from_text(model_to_text(model))
    for name in ("support_vectors", "alphas", "sv_labels", "scaler_means", "scaler_scales"):
        assert _same_bits(getattr(restored, name), getattr(model, name)), name
    for name in ("bias", "max_kkt_violation", "dual_objective"):
        assert _same_bits(np.float64(getattr(restored, name)), np.float64(getattr(model, name)))
    assert restored.kernel == model.kernel
    assert restored.feature_names == model.feature_names
    assert restored.converged == model.converged


@PROPERTY
@given(untrainable_models)
def test_model_text_train_cannot_write_is_schema_error(model):
    with pytest.raises(SchemaError):
        model_from_text(model_to_text(model))


# pieces that tend to break number and field parsing
TOKENS = st.sampled_from([
    "", " ", "\t", "1", "+1", "-1", "0", "1.5", "nan", "inf", "-inf", "1e999", "x",
    "#", "1_0", "\x00", "\xa0", "١", "0x1", "-", "=", "degree=2", "kernel",
    "features", "dosegate-svm", "\r",
])


@PROPERTY
@given(trainable_models, st.data())
def test_damaged_model_text_raises_only_package_errors(model, data):
    lines = model_to_text(model).splitlines()
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(lines) - 1))
        action = data.draw(st.sampled_from(["replace", "delete", "field", "insert"]))
        if action == "replace":
            lines[i] = "".join(data.draw(st.lists(TOKENS, max_size=8)))
        elif action == "delete" and len(lines) > 1:
            del lines[i]
        elif action == "field":
            fields = lines[i].split(" ")
            fields[data.draw(st.integers(0, len(fields) - 1))] = data.draw(TOKENS)
            lines[i] = " ".join(fields)
        else:
            lines.insert(i, data.draw(st.text(max_size=20)))
    try:
        model_from_text("\n".join(lines))
    except DosegateError:
        pass


@PROPERTY
@given(st.text())
def test_arbitrary_model_text_raises_only_package_errors(text):
    try:
        model_from_text(text)
    except DosegateError:
        pass


def _optional(strategy):
    return st.none() | strategy


# one patient whose every value a Cohort accepts and the parser keeps;
# None is a missing value
patients = st.fixed_dictionaries({
    "age_decade": _optional(st.integers(1, 9)),
    "height_cm": _optional(st.floats(100.0, 250.0)),
    "weight_kg": _optional(st.floats(20.0, 300.0)),
    "race": _optional(st.sampled_from([1, 2, 3])),
    **{name: _optional(st.sampled_from([0, 1])) for name in ("gender", *BINARY_COVARIATES)},
    "inr": st.floats(2.0, 3.0),
    "target_inr": _optional(positive),
    "therapeutic_dose_mg_week": positive,
})


@settings(PROPERTY, max_examples=100)
@given(st.lists(patients, min_size=1, max_size=8))
def test_cohort_text_round_trips_columns(rows):
    cohort = Cohort({name: [np.nan if row[name] is None else row[name] for row in rows]
                     for name in CANONICAL_COLUMNS})
    result = parse_cohort(cohort_to_text(cohort))
    assert _same_bits(result.cohort.columns, cohort.columns)
    assert result.n_data_rows == len(rows)
    assert result.n_excluded == 0


CELLS = st.sampled_from([
    "", "NA", "n/a", "0", "1", "1.0", "2", "3", "9", "10", "95", "-1", "2.5", "30", "170",
    "80", "1e20", "1e400", "nan", "yes", "no", "male", "f", "white", "asian", "black",
    "2-3", "0-0", "-", "50 - 59", "90+", '"', '"x', "a,b", "x\ty", "\r", "\n", "\x00",
    "1e308-1.7e308",
])


@PROPERTY
@given(st.data())
def test_damaged_cohort_text_raises_only_package_errors(data):
    columns = list(CANONICAL_COLUMNS)
    if data.draw(st.booleans()):
        columns = data.draw(st.permutations(columns))[:data.draw(st.integers(0, len(columns)))]
    delimiter = data.draw(st.sampled_from(["\t", ","]))
    rows = [delimiter.join(columns)]
    for _ in range(data.draw(st.integers(0, 5))):
        rows.append(delimiter.join(data.draw(st.lists(CELLS, max_size=len(columns) + 2))))
    try:
        parse_cohort("\n".join(rows))
    except (SchemaError, EmptyCohortError):
        pass


@PROPERTY
@given(st.lists(patients, min_size=1, max_size=8), st.data())
def test_valid_rows_with_one_damaged_cell_each_raise_only_package_errors(rows, data):
    # every other cell of a row stays valid, so a damaged cell meets a
    # kept INR and a positive dose, as it would in a real export
    cohort = Cohort({name: [np.nan if row[name] is None else row[name] for row in rows]
                     for name in CANONICAL_COLUMNS})
    lines = cohort_to_text(cohort).splitlines()
    for i in range(1, len(lines)):
        cells = lines[i].split("\t")
        cells[data.draw(st.integers(0, len(cells) - 1))] = data.draw(CELLS)
        lines[i] = "\t".join(cells)
    try:
        parse_cohort("\n".join(lines))
    except (SchemaError, EmptyCohortError):
        pass


@PROPERTY
@given(st.text())
def test_arbitrary_cohort_text_raises_only_package_errors(text):
    try:
        parse_cohort(text)
    except (SchemaError, EmptyCohortError):
        pass


# --- plan, schema, config, kernel spec and patient pairs ---

plans = st.builds(
    ImputationPlan,
    means=st.fixed_dictionaries({}, optional={
        "height_cm": st.floats(100.0, 250.0),
        "weight_kg": st.floats(20.0, 300.0),
        "target_inr": st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    }),
    modes=st.fixed_dictionaries({}, optional={
        "age_decade": st.integers(1, 9),
        "race": st.sampled_from([1, 2, 3]),
        **{name: st.sampled_from([0, 1]) for name in ("gender", *BINARY_COVARIATES)},
    }),
    provenance=st.text(alphabet="abcdefghijklmnopqrstuvwxyz_-0123456789", min_size=1,
                       max_size=12),
)


@PROPERTY
@given(plans)
def test_plan_text_round_trips_bit_exactly(plan):
    restored = plan_from_text(plan_to_text(plan))
    assert {k: np.float64(v).tobytes() for k, v in restored.means.items()} == {
        k: np.float64(v).tobytes() for k, v in plan.means.items()}
    assert restored.modes == plan.modes
    assert restored.provenance == plan.provenance


PLAN_TOKENS = st.sampled_from([
    "provenance", "mean", "mode", "height_cm", "weight_kg", "target_inr", "age_decade",
    "race", "gender", "aspirin", "train", "0", "1", "3", "7", "-1", "170", "2.5", "1.5",
    "abc", "nan", "inf", "1e999", "", "\x00", "١",
])


@PROPERTY
@given(st.lists(st.lists(PLAN_TOKENS, max_size=4).map(" ".join), max_size=6) | st.text())
def test_arbitrary_plan_text_raises_only_package_errors(lines):
    text = lines if isinstance(lines, str) else "\n".join(lines)
    try:
        plan_from_text(text)
    except DosegateError:
        pass


KEY_VALUE_TOKENS = st.sampled_from([
    "", " ", "=", "#", "seed", "n", "kernel", "threshold", "balance_classes", "cv_k",
    "age_decade", "height_cm", "race", "enzyme", "inr", "Age", "1", "abc", "0.5", "nan",
    "true", "maybe", "1e999", "-3", "\x00", "١", "\r",
])
key_value_text = (st.lists(st.lists(KEY_VALUE_TOKENS, max_size=4).map("".join), max_size=6)
                  .map("\n".join) | st.text())


@PROPERTY
@given(key_value_text)
def test_arbitrary_schema_text_raises_only_package_errors(text):
    try:
        schema_from_text(text)
    except DosegateError:
        pass


@PROPERTY
@given(key_value_text)
def test_arbitrary_config_text_raises_only_package_errors(text):
    try:
        config_from_text(text)
    except DosegateError:
        pass


KERNEL_TOKENS = st.sampled_from([
    "linear", "polynomial", "rbf", "sigmoid", "anova", "bogus", "degree=2", "degree=0",
    "degree=1.5", "offset=1", "theta=-1", "delta=0", "delta=nan", "sigma=2", "d=0", "d=2",
    "n_dims=1", "n_dims=-1", "n_dims=x", "variant=rbf", "=", "x", ",", "", "1e999",
])


@PROPERTY
@given(st.lists(KERNEL_TOKENS, max_size=5).map(" ".join) | st.text())
def test_arbitrary_kernel_spec_raises_only_package_errors(text):
    try:
        KernelSpec.from_text(text)
    except DosegateError:
        pass


PATIENT_KEYS = st.sampled_from([*CANONICAL_COLUMNS, "wat", "", " age_decade"])
PATIENT_VALUES = st.sampled_from([
    "", "0", "1", "2", "3", "5", "9", "10", "-1", "170", "80.5", "2.5", "abc", "nan", "inf",
    "1e999", "white", "asian", "black", "purple", "1.5", "\x00", "١",
])


@PROPERTY
@given(st.lists(st.builds("{}={}".format, PATIENT_KEYS, PATIENT_VALUES) | st.text(),
                max_size=30),
       st.sampled_from([None, ImputationPlan(means={"height_cm": 170.0}, modes={"race": 1})]))
def test_arbitrary_patient_pairs_raise_only_package_errors(pairs, plan):
    try:
        patient_cohort(pairs, plan)
    except DosegateError:
        pass
