"""Flat-text model serialization.

Versioned, self-describing, and bit-exact: floats are written with 17
significant digits, which round-trips IEEE doubles losslessly, so a
reloaded model produces identical decision values. One support vector
per line keeps the format diffable and greppable.

load_model parses a given text once per process: it remembers the last
text it parsed and the model it gave, and hands that same model back
while the file holds exactly that text. The model's arrays are
read-only, so no caller can change what another caller gets.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .cohort import _format_distinct
from .errors import SchemaError, read_text
from .kernels import KernelSpec
from .svm import SvmModel

FORMAT_NAME = "dosegate-svm"
FORMAT_VERSION = 1


def _fmt(value: float) -> str:
    return f"{float(value):.17g}"


def model_to_text(model: SvmModel) -> str:
    for name in model.feature_names:
        if not name or any(ch.isspace() for ch in name):
            raise SchemaError(f"feature name {name!r} is not serializable")
    lines = [
        f"{FORMAT_NAME} {FORMAT_VERSION}",
        f"kernel {model.kernel.to_text()}",
        "features " + " ".join(model.feature_names),
        "means " + " ".join(_fmt(v) for v in model.scaler_means),
        "scales " + " ".join(_fmt(v) for v in model.scaler_scales),
        f"bias {_fmt(model.bias)}",
        f"converged {1 if model.converged else 0}",
        f"max_kkt_violation {_fmt(model.max_kkt_violation)}",
        f"dual_objective {_fmt(model.dual_objective)}",
        f"support_vectors {model.alphas.size}",
    ]
    columns = [[f"{int(label):+d}" for label in model.sv_labels],
               *(_format_distinct(column, _fmt)
                 for column in (model.alphas, *np.asarray(model.support_vectors).T))]
    lines.extend(map(" ".join, zip(*columns)))
    return "\n".join(lines) + "\n"


def _header_value(lines: list[str], index: int, key: str) -> str:
    if index >= len(lines):
        raise SchemaError(f"model text ended before {key!r} line")
    line = lines[index]
    head, _, rest = line.partition(" ")
    if head != key:
        raise SchemaError(f"expected {key!r} line, found {line!r}")
    return rest


def model_from_text(text: str) -> SvmModel:
    """Parse a model written by model_to_text; any malformed input is a
    SchemaError (or a DomainError from the kernel line)."""
    try:
        return _parse_model(text)
    except ValueError as exc:  # an unreadable number, from Python or numpy
        raise SchemaError(f"unreadable model text: {exc}") from None


def _parse_model(text: str) -> SvmModel:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise SchemaError("empty model text")
    magic = lines[0].split()
    if len(magic) != 2 or magic[0] != FORMAT_NAME:
        raise SchemaError(f"not a {FORMAT_NAME} file: {lines[0]!r}")
    if int(magic[1]) != FORMAT_VERSION:
        raise SchemaError(f"unsupported model format version {magic[1]}")

    kernel = KernelSpec.from_text(_header_value(lines, 1, "kernel"))
    names = tuple(_header_value(lines, 2, "features").split())
    means = np.array([float(v) for v in _header_value(lines, 3, "means").split()])
    scales = np.array([float(v) for v in _header_value(lines, 4, "scales").split()])
    bias = float(_header_value(lines, 5, "bias"))
    converged = _header_value(lines, 6, "converged") == "1"
    max_viol = float(_header_value(lines, 7, "max_kkt_violation"))
    objective = float(_header_value(lines, 8, "dual_objective"))
    n_sv = int(_header_value(lines, 9, "support_vectors"))

    if len(names) != means.size or len(names) != scales.size:
        raise SchemaError("feature names and scaler lengths disagree")
    body = lines[10:]
    if len(body) != n_sv:
        raise SchemaError(f"expected {n_sv} support vector lines, found {len(body)}")
    for i, line in enumerate(body):
        label = line.split(None, 1)[0]
        if label not in ("+1", "-1", "1"):
            raise SchemaError(f"bad label {label!r} on support vector line {i + 1}")
    width = 2 + len(names)
    if n_sv:
        # one numpy pass; it rejects a line whose field count differs from
        # the first line's, and the shape check holds the first line to width
        block = np.loadtxt(body, dtype=np.float64, ndmin=2, comments=None)
    else:
        block = np.empty((0, width))
    if block.shape[1] != width:
        raise SchemaError(f"support vector lines have {block.shape[1]} fields, expected {width}")
    # what train writes: a scaler, bias, multipliers and support vectors
    # that are all finite, positive scales and positive multipliers
    if not (np.isfinite(means).all() and np.isfinite(scales).all() and np.isfinite(bias)
            and np.isfinite(block[:, 1:]).all()):
        raise SchemaError("model text has a non-finite scaler, bias, multiplier or "
                          "support vector value")
    if not (scales > 0).all():
        raise SchemaError("model text has a scale <= 0")
    if not (block[:, 1] > 0).all():
        raise SchemaError("model text has a multiplier <= 0")
    labels, alphas, vectors = block[:, 0].copy(), block[:, 1].copy(), block[:, 2:].copy()
    for array in (labels, alphas, vectors, means, scales):
        array.setflags(write=False)
    return SvmModel(
        kernel=kernel,
        support_vectors=vectors,
        alphas=alphas,
        sv_labels=labels,
        bias=bias,
        feature_names=names,
        scaler_means=means,
        scaler_scales=scales,
        converged=converged,
        max_kkt_violation=max_viol,
        dual_objective=objective,
    )


def save_model(model: SvmModel, path) -> None:
    Path(path).write_text(model_to_text(model), encoding="ascii")


# (text, model) of the last text load_model parsed; the key is the whole
# text, so a rewritten file is parsed again whatever its path or mtime
_last_loaded: tuple[str, SvmModel] | None = None


def load_model(path) -> SvmModel:
    global _last_loaded
    text = read_text(path, "model file", encoding="ascii")
    last = _last_loaded  # one read, so the text and model checked belong together
    if last is not None and last[0] == text:
        return last[1]
    model = model_from_text(text)  # a text that fails to parse is not kept
    _last_loaded = (text, model)
    return model
