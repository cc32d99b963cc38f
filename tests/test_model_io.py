"""Model text format: bit-exact round trips and tamper rejection."""

from dataclasses import replace

import numpy as np
import pytest

from dosegate.errors import SchemaError
from dosegate.kernels import KernelSpec
from dosegate.model_io import load_model, model_from_text, model_to_text, save_model
from dosegate.svm import SvmModel, TrainConfig, decision_values, train


def _fitted_model(seed=0):
    rng = np.random.default_rng(seed)
    raw = rng.normal(loc=5.0, scale=2.0, size=(30, 3))
    labels = np.where(raw @ np.array([0.3, -1.0, 0.4]) > 1.5, 1.0, -1.0)
    if abs(labels.sum()) == 30:
        labels[0] = -labels[0]
    means, scales = raw.mean(axis=0), raw.std(axis=0)
    kernel = KernelSpec(variant="rbf", delta=1.3)
    model = train((raw - means) / scales, labels, kernel=kernel, config=TrainConfig(seed=seed))
    # the feature names and scaler that fit_gate puts on its model
    return replace(model, feature_names=("a", "b", "c"), scaler_means=means,
                   scaler_scales=scales), raw


def test_round_trip_bit_exact_decision_values():
    model, raw = _fitted_model()
    restored = model_from_text(model_to_text(model))
    rng = np.random.default_rng(9)
    probes = rng.normal(loc=5.0, scale=2.0, size=(50, 3))
    a = decision_values(model, probes)
    b = decision_values(restored, probes)
    assert np.array_equal(a, b)  # bitwise, not approx


def test_round_trip_preserves_every_field():
    model, _ = _fitted_model(seed=4)
    restored = model_from_text(model_to_text(model))
    assert restored.kernel == model.kernel
    assert restored.feature_names == model.feature_names
    assert restored.bias == model.bias
    assert restored.converged == model.converged
    assert restored.max_kkt_violation == model.max_kkt_violation
    assert restored.dual_objective == model.dual_objective
    assert np.array_equal(restored.alphas, model.alphas)
    assert np.array_equal(restored.sv_labels, model.sv_labels)
    assert np.array_equal(restored.support_vectors, model.support_vectors)
    assert np.array_equal(restored.scaler_means, model.scaler_means)
    assert np.array_equal(restored.scaler_scales, model.scaler_scales)


def test_file_round_trip(tmp_path):
    model, raw = _fitted_model(seed=7)
    path = tmp_path / "model.txt"
    save_model(model, path)
    restored = load_model(path)
    assert np.array_equal(decision_values(model, raw),
                          decision_values(restored, raw))


def test_zero_support_vector_model_round_trips():
    stub = SvmModel(
        kernel=KernelSpec(variant="linear"),
        support_vectors=np.zeros((0, 2)),
        alphas=np.zeros(0),
        sv_labels=np.zeros(0),
        bias=-1.0,
        feature_names=("a", "b"),
        scaler_means=np.zeros(2),
        scaler_scales=np.ones(2),
        converged=True,
        max_kkt_violation=0.0,
        dual_objective=0.0,
    )
    restored = model_from_text(model_to_text(stub))
    assert decision_values(restored, [[5.0, 5.0]]) == pytest.approx([-1.0])


def test_tampered_header_rejected():
    model, _ = _fitted_model()
    text = model_to_text(model)
    for bad in (
        text.replace("dosegate-svm 1", "dosegate-svm 2", 1),
        text.replace("dosegate-svm", "other-format", 1),
        text.replace("bias", "bais", 1),
        "\n".join(text.splitlines()[:-2]) + "\n",  # fewer SV lines than declared
    ):
        with pytest.raises(SchemaError):
            model_from_text(bad)


def test_sv_line_with_bad_label_rejected():
    model, _ = _fitted_model()
    lines = model_to_text(model).splitlines()
    first_sv = next(i for i, ln in enumerate(lines)
                    if ln.startswith(("+1 ", "-1 ")))
    lines[first_sv] = "0 " + lines[first_sv].split(" ", 1)[1]
    with pytest.raises(SchemaError):
        model_from_text("\n".join(lines) + "\n")


def test_seventeen_digit_serialization():
    model, _ = _fitted_model(seed=2)
    text = model_to_text(model)
    token = f"{model.bias:.17g}"
    assert f"bias {token}" in text


def _sv_lines(text):
    lines = text.splitlines()
    first = next(i for i, ln in enumerate(lines) if ln.startswith(("+1 ", "-1 ")))
    return lines, first


@pytest.mark.parametrize("damage", [
    "one_line_short", "every_line_short", "every_line_long", "unreadable_number",
    "comment_marker", "label_with_decimals", "bad_version_token", "scaler_too_short",
    "nan_bias", "inf_bias", "nan_mean", "zero_scale", "negative_scale", "inf_scale",
    "zero_alpha", "negative_alpha", "nan_alpha", "inf_support_vector",
])
def test_malformed_model_text_is_schema_error(damage):
    model, _ = _fitted_model()
    lines, first = _sv_lines(model_to_text(model))
    if damage == "one_line_short":
        lines[first + 1] = lines[first + 1].rsplit(" ", 1)[0]
    elif damage in ("every_line_short", "every_line_long"):
        for i in range(first, len(lines)):
            lines[i] = lines[i].rsplit(" ", 1)[0] if damage == "every_line_short" else lines[i] + " 0"
    elif damage == "unreadable_number":
        lines[first + 2] = lines[first + 2].rsplit(" ", 1)[0] + " 0.5x"
    elif damage == "comment_marker":
        lines[first] = lines[first].rsplit(" ", 1)[0] + " #"
    elif damage == "label_with_decimals":
        lines[first] = "1.0 " + lines[first].split(" ", 1)[1]
    elif damage == "bad_version_token":
        lines[0] = "dosegate-svm one"
    elif damage in ("nan_bias", "inf_bias"):
        lines[5] = "bias " + damage[:3]
    elif damage == "nan_mean":
        lines[3] = "means nan " + lines[3].split(" ", 2)[2]
    elif damage.endswith("_scale"):
        value = {"zero": "0", "negative": "-1", "inf": "inf"}[damage.split("_")[0]]
        lines[4] = f"scales {value} " + lines[4].split(" ", 2)[2]
    elif damage.endswith("_alpha"):
        value = {"zero": "0", "negative": "-0.5", "nan": "nan"}[damage.split("_")[0]]
        label, _, rest = lines[first].split(" ", 2)
        lines[first] = f"{label} {value} {rest}"
    elif damage == "inf_support_vector":
        lines[first] = lines[first].rsplit(" ", 1)[0] + " -inf"
    else:
        lines[4] = lines[4].rsplit(" ", 1)[0]
    with pytest.raises(SchemaError):
        model_from_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("kernel", [
    KernelSpec(degree=2.0),
    KernelSpec(degree=np.int64(2)),
    KernelSpec(variant="anova", d=1.0, n_dims=np.int64(2)),
], ids=["degree 2.0", "degree int64", "anova d 1.0"])
def test_kernel_with_whole_number_parameters_round_trips(tmp_path, kernel):
    model, raw = _fitted_model(seed=8)
    model = replace(model, kernel=kernel)
    path = tmp_path / "model.txt"
    save_model(model, path)
    restored = load_model(path)
    assert restored.kernel == kernel
    assert type(restored.kernel.degree) is type(kernel.degree) is int
    assert type(restored.kernel.d) is type(kernel.d) is int
    assert np.array_equal(decision_values(restored, raw), decision_values(model, raw))


def test_unsigned_label_and_blank_lines_accepted():
    model, _ = _fitted_model()
    lines, first = _sv_lines(model_to_text(model))
    lines = [ln[1:] if ln.startswith("+1 ") else ln for ln in lines]
    lines.insert(first, "   ")
    restored = model_from_text("\n".join(lines) + "\n")
    assert np.array_equal(restored.sv_labels, model.sv_labels)
    assert np.array_equal(restored.support_vectors, model.support_vectors)


def test_same_text_is_parsed_once_and_rewritten_file_again(tmp_path):
    first, _ = _fitted_model(seed=1)
    second, _ = _fitted_model(seed=5)
    path = tmp_path / "model.txt"
    save_model(first, path)
    loaded = load_model(path)
    assert load_model(path) is loaded
    save_model(second, path)  # same path, another model's text
    reloaded = load_model(path)
    assert np.array_equal(reloaded.alphas, second.alphas)
    assert np.array_equal(reloaded.support_vectors, second.support_vectors)
    assert not np.array_equal(reloaded.alphas, loaded.alphas)


def test_damaged_text_after_good_text_fails_every_time(tmp_path):
    model, raw = _fitted_model(seed=3)
    path = tmp_path / "model.txt"
    save_model(model, path)
    good = load_model(path)
    lines, first = _sv_lines(model_to_text(model))
    lines[first + 1] = lines[first + 1].rsplit(" ", 1)[0]
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    for _ in range(2):
        with pytest.raises(SchemaError):
            load_model(path)
    save_model(model, path)
    restored = load_model(path)
    assert np.array_equal(decision_values(restored, raw), decision_values(good, raw))


def test_loaded_model_arrays_are_read_only(tmp_path):
    model, _ = _fitted_model(seed=6)
    path = tmp_path / "model.txt"
    save_model(model, path)
    loaded = load_model(path)
    for name in ("alphas", "support_vectors", "scaler_means", "scaler_scales", "sv_labels"):
        with pytest.raises(ValueError):
            getattr(loaded, name)[0] = 1.0
    assert np.array_equal(load_model(path).alphas, model.alphas)


def _reference_model_text(model):
    # the writer formats every value on its own: the reference for the
    # per-value-once writer in model_io
    def fmt(value):
        return f"{float(value):.17g}"

    lines = [
        "dosegate-svm 1",
        f"kernel {model.kernel.to_text()}",
        "features " + " ".join(model.feature_names),
        "means " + " ".join(fmt(v) for v in model.scaler_means),
        "scales " + " ".join(fmt(v) for v in model.scaler_scales),
        f"bias {fmt(model.bias)}",
        f"converged {1 if model.converged else 0}",
        f"max_kkt_violation {fmt(model.max_kkt_violation)}",
        f"dual_objective {fmt(model.dual_objective)}",
        f"support_vectors {model.alphas.size}",
    ]
    for label, alpha, row in zip(model.sv_labels, model.alphas, model.support_vectors):
        vec = " ".join(fmt(v) for v in row)
        lines.append(f"{int(label):+d} {fmt(alpha)} {vec}".rstrip())
    return "\n".join(lines) + "\n"


def test_writer_matches_per_value_reference_and_keeps_negative_zero():
    model, _ = _fitted_model(seed=3)
    rows = model.alphas.size
    assert rows >= 6
    vectors = model.support_vectors.copy()
    vectors[:, 0] = np.resize([0.0, -0.0, 1.0], rows)  # 0.0 next to -0.0
    vectors[:, 1] = np.resize([0.1, 2.0 / 3.0, 0.1], rows)  # repeated 17-digit values
    alphas = model.alphas.copy()
    alphas[: rows // 2] = model.alphas[0]  # repeated multipliers
    model = replace(model, support_vectors=vectors, alphas=alphas)
    text = model_to_text(model)
    assert text == _reference_model_text(model)
    assert " -0 " in text and "0.66666666666666663" in text
    restored = model_from_text(text)
    assert np.array_equal(np.signbit(restored.support_vectors), np.signbit(vectors))
    assert np.array_equal(restored.support_vectors.view(np.int64), vectors.view(np.int64))
    assert model_to_text(restored) == text


def test_writer_matches_reference_on_trained_models():
    for seed in range(3):
        model, _ = _fitted_model(seed=seed)
        assert model_to_text(model) == _reference_model_text(model)
    stub = model_from_text("dosegate-svm 1\nkernel linear\nfeatures\nmeans\nscales\nbias 0\n"
                           "converged 1\nmax_kkt_violation 0\ndual_objective 0\n"
                           "support_vectors 1\n+1 0.5\n")
    assert model_to_text(stub) == _reference_model_text(stub)
