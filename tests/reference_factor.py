"""Reference kernel factor: greedy pivoted Cholesky one kernel call a column.

The factor as it stood before its columns came from per-dimension tables
and its rank probe from one kernel matrix: every pivot, in the probe on
the first LOW_RANK_CAP + 1 rows and in the factor itself, computes its
column with one `kernel_matrix` call, and the diagonal comes from
`kernel_matrix` on diagonal blocks. `dosegate.svm.pivoted_cholesky` must
return the same verdict, and for anova the same factor bit for bit. Used
only as a verification oracle.
"""

from __future__ import annotations

import numpy as np

from dosegate.kernels import KernelSpec, kernel_matrix
from dosegate.svm import LOW_RANK_CAP, PIVOT_TOLERANCE


def reference_diagonal(spec: KernelSpec, x: np.ndarray) -> np.ndarray:
    blocks = np.array_split(x, max(1, x.shape[0] // 64))
    return np.concatenate([np.diagonal(kernel_matrix(spec, blk, blk)) for blk in blocks])


def reference_cholesky(spec: KernelSpec, x: np.ndarray) -> tuple[np.ndarray | None, bool]:
    """(V, False), or (None, indefinite) when the factor stops early."""
    n = x.shape[0]
    probe = LOW_RANK_CAP + 1
    if n > probe:
        head, indefinite = reference_cholesky(spec, x[:probe])
        if head is None:
            return None, indefinite
    residual = reference_diagonal(spec, x)
    floor = PIVOT_TOLERANCE * max(float(np.abs(residual).max()), np.finfo(float).tiny)
    rows = np.empty((min(n, LOW_RANK_CAP), n))  # row k is column k of V
    rank = 0
    while float(residual.min()) >= -floor:
        p = int(np.argmax(residual))
        if residual[p] <= floor:
            return rows[:rank].T, False
        if rank == LOW_RANK_CAP:
            return None, False
        col = kernel_matrix(spec, x, x[p:p + 1])[:, 0] - rows[:rank].T @ rows[:rank, p]
        rows[rank] = col / np.sqrt(residual[p])
        residual -= rows[rank] ** 2
        rank += 1
    return None, True
