"""Kernel functions for the max-margin classifier.

All classification goes through kernel evaluations; the implicit feature
map is never materialized. Supported variants:

    linear       <x, y>
    polynomial   (<x, y> + offset) ** degree
    sigmoid      tanh(<x, y> + theta)
    rbf          exp(-||x - y||^2 / (2 delta^2))
    anova        sum_k exp(-sigma (x_k - y_k)^2) ** d

The polynomial and rbf kernels are positive semidefinite; sigmoid is not
in general, and downstream code must not assume it is.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

VARIANTS = ("linear", "polynomial", "sigmoid", "rbf", "anova")
# The anova sum, kernel_columns' value tables and anova_product's terms
# run over blocks of about this many cells, so that a block's scratch
# buffers stay in a 2 MB L2 cache; the block also bounds the size of
# kernel_columns' value tables, and RBF forms its squared distances in
# blocks of it. README's paragraph on kernel blocks has the measurements.
ANOVA_BLOCK_CELLS = 1 << 15

# the parameters each variant reads, in the order to_text writes them
_PARAMETERS = {
    "linear": (),
    "polynomial": ("degree", "offset"),
    "sigmoid": ("theta",),
    "rbf": ("delta",),
    "anova": ("sigma", "d", "n_dims"),
}
_INTEGER_PARAMETERS = ("degree", "d", "n_dims")


@dataclass(frozen=True)
class KernelSpec:
    """Kernel variant plus its parameters.

    Only the parameters relevant to ``variant`` are read; ``n_dims``
    limits the anova sum to the first ``n_dims`` coordinates (at least
    one; None means all coordinates; more than the input provides is a
    domain error).
    """

    variant: str = "polynomial"
    degree: int = 2
    offset: float = 1.0
    theta: float = 0.0
    delta: float = 1.0
    sigma: float = 1.0
    d: int = 1
    n_dims: int | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise DomainError(f"unknown kernel variant {self.variant!r}")
        # each parameter the variant reads is stored as its field's type,
        # so that to_text writes what from_text reads back
        for name in _PARAMETERS[self.variant]:
            value = getattr(self, name)
            if value is None and name == "n_dims":
                continue
            if (isinstance(value, bool) or not isinstance(value, numbers.Real)
                    or not math.isfinite(value)):
                raise DomainError(f"{self.variant} {name} must be a finite number, got {value!r}")
            if name in _INTEGER_PARAMETERS:
                if value < 1 or int(value) != value:
                    raise DomainError(f"{self.variant} {name} must be an integer >= 1")
                object.__setattr__(self, name, int(value))
            else:
                object.__setattr__(self, name, float(value))
        if self.variant == "rbf" and not self.delta > 0:
            raise DomainError("rbf delta must be > 0")
        if self.variant == "anova" and not self.sigma > 0:
            raise DomainError("anova sigma must be > 0")

    def to_text(self) -> str:
        """One-line textual form, e.g. ``polynomial degree=2 offset=1.0``."""
        values = ((name, getattr(self, name)) for name in _PARAMETERS[self.variant])
        return " ".join([self.variant, *(f"{name}={value}" for name, value in values
                                         if value is not None)])

    @classmethod
    def from_text(cls, text: str) -> "KernelSpec":
        """Read to_text's form: the variant, then key=value for parameters
        the variant reads, each at most once."""
        tokens = text.replace(",", " ").split()
        if not tokens:
            raise DomainError("empty kernel specification")
        variant = tokens[0].lower()
        if variant not in _PARAMETERS:
            raise DomainError(f"unknown kernel variant {variant!r}")
        kwargs = {}
        for token in tokens[1:]:
            if "=" not in token:
                raise DomainError(f"bad kernel parameter {token!r} (expected key=value)")
            key, raw = token.split("=", 1)
            if key not in _PARAMETERS[variant]:
                raise DomainError(f"kernel {variant} has no parameter {key!r}")
            if key in kwargs:
                raise DomainError(f"kernel parameter {key!r} given twice")
            try:
                kwargs[key] = int(raw) if key in _INTEGER_PARAMETERS else float(raw)
            except ValueError:
                raise DomainError(f"unreadable kernel parameter {token!r}") from None
        return cls(variant=variant, **kwargs)


def _anova_term(spec: KernelSpec, diff: np.ndarray, term: np.ndarray) -> None:
    """One anova dimension's terms exp(-sigma diff^2) ** d, into ``term``."""
    np.multiply(diff, -spec.sigma, out=term)
    term *= diff
    np.exp(term, out=term)
    if spec.d != 1:  # x ** 1 is x
        term **= spec.d


def _anova_dims(spec: KernelSpec, width: int) -> int:
    """How many leading coordinates the anova sum runs over."""
    if spec.n_dims is not None and spec.n_dims > width:
        raise DomainError(f"anova n_dims={spec.n_dims} exceeds the {width} input dimensions")
    return width if spec.n_dims is None else spec.n_dims


def _distinct(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A column's distinct values, told apart by their bits (so 0.0 from
    -0.0), and each row's index among them."""
    bits, codes = np.unique(column.view(np.int64), return_inverse=True)
    return bits.view(np.float64), codes


def _cross_apply(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kernel values for every row pair of ``a`` (m rows) and ``b`` (n rows).

    Each kernel finishes its matrix in place, keeping the order of
    operations of the formula in the module docstring, so every value is
    the one the formula gives without a full-size temporary per step. The
    kernels built on a matrix product take one product over all rows,
    because a product of another shape may round differently. The anova
    sum forms each dimension's terms over blocks of about
    ANOVA_BLOCK_CELLS cells of rows, in two scratch buffers of a block.
    """
    if spec.variant == "linear":
        return a @ b.T
    if spec.variant == "polynomial":
        out = a @ b.T
        out += spec.offset
        out **= spec.degree
        return out
    if spec.variant == "sigmoid":
        out = a @ b.T
        out += spec.theta
        return np.tanh(out, out=out)
    if spec.variant == "rbf":
        # the squared distances (|a|^2 + |b|^2) - 2ab overwrite the doubled
        # product block by block
        sq = a @ b.T
        sq *= 2.0
        a_norms, b_norms = np.sum(a * a, axis=1), np.sum(b * b, axis=1)
        step = max(1, ANOVA_BLOCK_CELLS // max(b.shape[0], 1))
        for start in range(0, a.shape[0], step):
            rows = slice(start, start + step)
            np.subtract(a_norms[rows, None] + b_norms, sq[rows], out=sq[rows])
        np.maximum(sq, 0.0, out=sq)
        if a is b:
            np.fill_diagonal(sq, 0.0)
        sq /= -2.0 * spec.delta**2  # the bits of -sq / (2 delta^2)
        return np.exp(sq, out=sq)
    if spec.variant == "anova":
        dims = _anova_dims(spec, a.shape[1])
        m, n = a.shape[0], b.shape[0]
        step = max(1, ANOVA_BLOCK_CELLS // max(n, 1))
        out = np.zeros((m, n))
        term_buffer = np.empty((min(step, m), n))
        diff_buffer = np.empty_like(term_buffer)
        for start in range(0, m, step):
            rows = slice(start, min(start + step, m))
            term, diff = term_buffer[:rows.stop - start], diff_buffer[:rows.stop - start]
            for k in range(dims):
                np.subtract(a[rows, k, None], b[None, :, k], out=diff)
                _anova_term(spec, diff, term)
                out[rows] += term
        return out
    raise DomainError(f"unknown kernel variant {spec.variant!r}")


def kernel_matrix(spec: KernelSpec, a, b) -> np.ndarray:
    """Kernel values between the rows of two matrices."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise DomainError(f"dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    return _cross_apply(spec, a, b)


def kernel_columns(spec: KernelSpec, x: np.ndarray):
    """The kernel's diagonal on the rows of ``x``, and a function of p
    that gives its column K(x, x_p), every value bit for bit
    kernel_matrix's.

    An anova dimension of at most a block's cells of value pairs gets a
    table of its terms between its distinct values, built once, and the
    diagonal and every column gather from it in the dimension's place in
    the sum; a dimension of more values forms its terms for each column.
    """
    if spec.variant != "anova":
        # block by block, so the diagonal comes from the same formula as
        # the columns
        blocks = np.array_split(x, max(1, x.shape[0] // 64))
        diagonal = np.concatenate([np.diagonal(kernel_matrix(spec, blk, blk))
                                   for blk in blocks])
        return diagonal, lambda p: kernel_matrix(spec, x, x[p:p + 1])[:, 0]
    n = x.shape[0]
    dims = []  # (column, table or None, codes)
    for k in range(_anova_dims(spec, x.shape[1])):
        values, codes = _distinct(x[:, k])
        table = None
        if values.size ** 2 <= ANOVA_BLOCK_CELLS:
            # row w holds the terms of every value against value w
            table = np.empty((values.size, values.size))
            _anova_term(spec, values - values[:, None], table)
        dims.append((np.ascontiguousarray(x[:, k]), table, codes))
    diff, term = np.empty(n), np.empty(n)

    def summed(p=None):
        # column p, or the diagonal when p is None
        out = np.zeros(n)
        for column, table, codes in dims:
            if table is not None:
                out += (np.diagonal(table) if p is None else table[codes[p]]).take(codes)
                continue
            np.subtract(column, column if p is None else column[p], out=diff)
            _anova_term(spec, diff, term)
            out += term
        return out

    return summed(), summed


def anova_product(spec: KernelSpec, a: np.ndarray, b: np.ndarray,
                  coef: np.ndarray) -> np.ndarray:
    """sum_j coef_j K(a_i, b_j) for each row a_i of ``a``, under the anova
    kernel, one dimension at a time.

    The kernel is a sum of one-dimensional terms, so the product is the
    sum over dimensions k of g_k(a_ik), with g_k(u) = sum_j coef_j
    term(u - b_jk) (Maji, Berg & Malik, CVPR 2008). A dimension forms its
    terms for its distinct values in ``a`` only, against every row of
    ``b``, in blocks of ANOVA_BLOCK_CELLS cells, and each row gathers g_k
    at its value: a dimension of few values is one block, and no array of
    a's rows by b's is held.
    """
    dims = _anova_dims(spec, a.shape[1])
    step = max(1, ANOVA_BLOCK_CELLS // max(b.shape[0], 1))
    diff = np.empty((min(step, a.shape[0]), b.shape[0]))
    term = np.empty_like(diff)
    out = np.zeros(a.shape[0])
    for k in range(dims):
        values, codes = _distinct(a[:, k])
        column = np.ascontiguousarray(b[:, k])  # a strided one slows the subtraction by half
        sums = np.empty(values.size)
        for start in range(0, values.size, step):
            block = values[start:start + step]
            d, t = diff[:block.size], term[:block.size]
            np.subtract(block[:, None], column, out=d)
            _anova_term(spec, d, t)
            sums[start:start + block.size] = t @ coef
        out += sums[codes]
    return out
