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
# The anova sum runs over row blocks of about this many cells, so that its
# two scratch buffers and the block of the output (256 kB each) stay in a
# 2 MB L2 cache across the dimensions. On 2118 x 1400 cells and 14
# dimensions (one thread, median of 7) 2^14 cells took 0.20 s, 2^15
# 0.19 s, 2^16 0.22 s, 2^18 0.27 s, and the unblocked sum 0.53 s. The
# block also bounds anova's value tables: in an output of at least one
# block, a dimension whose rows of a take at most one block's rows of
# distinct values, and at most half as many as there are rows, gets a
# table of its terms (one row per value, against every row of b), which
# the blocks gather from instead of recomputing exp. So a table is never
# larger than a block; on the 2118 x 1386 live columns of a paper-scale
# fit (11 of 14 dimensions tabled, one thread) the sum took 46 ms with
# the tables and 145 ms without. RBF forms its squared distances over row
# blocks of the same size, so that its scratch is one block rather than a
# second full-size matrix.
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


def _anova_table(spec: KernelSpec, column: np.ndarray, b_column: np.ndarray, limit: int):
    """(table, codes) for a column of ``a`` with at most ``limit`` distinct
    values, else None. Row v of the table holds the terms of value v
    against every row of ``b``, and ``codes`` gives each row's value."""
    bits, codes = np.unique(column.view(np.int64), return_inverse=True)
    if bits.size > limit:
        return None
    diff = bits.view(np.float64)[:, None] - b_column
    table = np.empty_like(diff)
    _anova_term(spec, diff, table)
    return table, codes


def _cross_apply(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kernel values for every row pair of ``a`` (m rows) and ``b`` (n rows).

    Each kernel finishes its matrix in place, keeping the order of
    operations of the formula in the module docstring, so every value is
    the one the formula gives without a full-size temporary per step. The
    kernels built on a matrix product take one product over all rows,
    because a product of another shape may round differently.
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
        np.negative(sq, out=sq)
        sq /= 2.0 * spec.delta**2
        return np.exp(sq, out=sq)
    if spec.variant == "anova":
        if spec.n_dims is not None and spec.n_dims > a.shape[1]:
            raise DomainError(
                f"anova n_dims={spec.n_dims} exceeds the {a.shape[1]} input dimensions"
            )
        dims = a.shape[1] if spec.n_dims is None else spec.n_dims
        m, n = a.shape[0], b.shape[0]
        step = max(1, ANOVA_BLOCK_CELLS // max(n, 1))
        tables = [_anova_table(spec, a[:, k], b[:, k], min(step, m // 2))
                  if m * n >= ANOVA_BLOCK_CELLS else None for k in range(dims)]
        out = np.zeros((m, n))
        term_buffer = np.empty((min(step, m), n))
        diff_buffer = np.empty_like(term_buffer) if None in tables else None
        for start in range(0, m, step):
            rows = slice(start, min(start + step, m))
            term = term_buffer[:rows.stop - start]
            for k in range(dims):
                if tables[k] is None:
                    diff = diff_buffer[:rows.stop - start]
                    np.subtract(a[rows, k, None], b[None, :, k], out=diff)
                    _anova_term(spec, diff, term)
                else:
                    # a row gather; mode="raise" would buffer the output
                    table, codes = tables[k]
                    np.take(table, codes[rows], axis=0, out=term, mode="wrap")
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

