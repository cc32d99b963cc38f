"""Small-scale reference solver for the soft-margin dual.

Maximizes

    W(a) = sum_i a_i - 1/2 sum_ij a_i a_j z_i z_j K(x_i, x_j)

subject to 0 <= a_i <= C_i and sum_i a_i z_i = 0, to objective accuracy
1e-8 for n <= 12. Deliberately independent of the production trainer:
projected gradient ascent from several feasible starts, an exhaustive
two-variable coordinate-ascent polish, and an active-set refinement.
Used only as a verification oracle.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from dosegate.errors import DataError, DegenerateLabelsError, DomainError
from dosegate.kernels import KernelSpec, kernel_matrix

MAX_ROWS = 12


class SizeError(DataError):
    """Input too large (or too small) for the reference solver."""


def gram_matrix(spec: KernelSpec, rows) -> np.ndarray:
    """Full kernel matrix of a sample against itself, exactly symmetric.

    Each unordered pair is evaluated once; the upper triangle is mirrored
    so G[i, j] and G[j, i] are the same float.
    """
    x = np.asarray(rows, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0:
        raise DomainError("gram_matrix expects a non-empty 2-D sample")
    g = kernel_matrix(spec, x, x)
    iu, ju = np.triu_indices(g.shape[0], k=1)
    g[ju, iu] = g[iu, ju]
    return g


class DualSolution(NamedTuple):
    alphas: np.ndarray
    bias: float
    objective: float


def _project(v: np.ndarray, z: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Euclidean projection of v onto {a : 0 <= a <= upper, z @ a = 0}.

    The projection is clip(v + t*z, 0, upper) for the t solving
    h(t) = z @ a(t) = 0. h is piecewise linear and nondecreasing with
    breakpoints where coordinates enter or leave their bounds, so the
    root lies between adjacent breakpoints and is solved exactly there.
    """
    # each coordinate clips at v_i + t z_i = 0 and = upper_i; z_i = +-1
    bps = np.concatenate([-v * z, (upper - v) * z])
    bps.sort()
    h = (v[None, :] + bps[:, None] * z[None, :]).clip(0.0, upper[None, :]) @ z
    # h(-inf) <= 0 <= h(+inf) and h is flat outside the breakpoints
    idx = int(h.searchsorted(0.0, side="left"))
    if idx == 0:
        t = bps[0]
    elif idx >= bps.size:
        t = bps[-1]
    elif h[idx] == h[idx - 1]:
        t = bps[idx]
    else:
        frac = (0.0 - h[idx - 1]) / (h[idx] - h[idx - 1])
        t = bps[idx - 1] + frac * (bps[idx] - bps[idx - 1])
    a = (v + t * z).clip(0.0, upper)
    free = (a > 0.0) & (a < upper)
    if free.any():
        # with the clipped set fixed, z @ a(t) is linear in t
        fixed = z[~free] @ a[~free]
        t_exact = -(fixed + z[free] @ v[free]) / np.count_nonzero(free)
        a_exact = (v + t_exact * z).clip(0.0, upper)
        if abs(z @ a_exact) <= abs(z @ a):
            a = a_exact
    return a


def _objective(a: np.ndarray, q: np.ndarray) -> float:
    return float(a.sum() - 0.5 * (a @ q @ a))


def _ascend(a: np.ndarray, q: np.ndarray, z: np.ndarray, upper: np.ndarray,
            step: float, iters: int) -> np.ndarray:
    best, best_obj = a, _objective(a, q)
    cur = a
    for _ in range(iters):
        nxt = _project(cur + step * (1.0 - q @ cur), z, upper)
        obj = _objective(nxt, q)
        if obj > best_obj:
            best, best_obj = nxt, obj
        if np.abs(nxt - cur).max() < 1e-14:
            break
        cur = nxt
    return best


def _pair_polish(a: np.ndarray, q: np.ndarray, k: np.ndarray, z: np.ndarray,
                 upper: np.ndarray, max_sweeps: int = 5000) -> np.ndarray:
    """Exact coordinate ascent over every index pair until no pair improves.

    The direction d = z_i e_i - z_j e_j preserves z @ a; along it the
    objective is quadratic with curvature K_ii + K_jj - 2 K_ij, so the
    one-dimensional maximum is closed-form (endpoint for flat or
    indefinite curvature).
    """
    # Python floats rather than numpy scalars in the pair loop: the same
    # IEEE arithmetic in the same order, without numpy's per-scalar cost
    n = a.size
    grad = (1.0 - q @ a).tolist()
    a, k, z, upper = a.tolist(), k.tolist(), z.tolist(), upper.tolist()
    for _ in range(max_sweeps):
        improved = False
        for i in range(n):
            for j in range(i + 1, n):
                slope = grad[i] * z[i] - grad[j] * z[j]
                curv = k[i][i] + k[j][j] - 2.0 * k[i][j]
                if z[i] > 0:
                    t_lo, t_hi = -a[i], upper[i] - a[i]
                else:
                    t_lo, t_hi = a[i] - upper[i], a[i]
                if z[j] > 0:
                    t_lo = max(t_lo, a[j] - upper[j])
                    t_hi = min(t_hi, a[j])
                else:
                    t_lo = max(t_lo, -a[j])
                    t_hi = min(t_hi, upper[j] - a[j])
                if t_hi <= t_lo:
                    continue
                if curv > 1e-300:
                    t = min(max(slope / curv, t_lo), t_hi)
                else:
                    gain_lo = t_lo * slope - 0.5 * t_lo * t_lo * curv
                    gain_hi = t_hi * slope - 0.5 * t_hi * t_hi * curv
                    t = t_lo if gain_lo >= gain_hi else t_hi
                gain = t * slope - 0.5 * t * t * curv
                if gain <= 1e-15:
                    continue
                a[i] += t * z[i]
                a[j] -= t * z[j]
                a[i] = min(max(a[i], 0.0), upper[i])
                a[j] = min(max(a[j], 0.0), upper[j])
                grad = [g - t * zm * (row[i] - row[j]) for g, zm, row in zip(grad, z, k)]
                improved = True
        if not improved:
            break
    return np.array(a)


def _active_set_refine(a: np.ndarray, q: np.ndarray, z: np.ndarray,
                       upper: np.ndarray) -> np.ndarray:
    """Solve the equality-constrained subproblem on the free set exactly."""
    tol = 1e-9 * max(1.0, float(upper.max()))
    at_lo = a <= tol
    at_hi = a >= upper - tol
    free = ~(at_lo | at_hi)
    m = int(np.count_nonzero(free))
    if m == 0:
        return a
    fixed = a.copy()
    fixed[at_lo] = 0.0
    fixed[at_hi] = upper[at_hi]
    rhs_lin = 1.0 - q[np.ix_(free, ~free)] @ fixed[~free]
    target = -float(z[~free] @ fixed[~free])
    # stationarity q_FF a_F + mu z_F = rhs, plus z_F @ a_F = target
    sys = np.zeros((m + 1, m + 1))
    sys[:m, :m] = q[np.ix_(free, free)]
    sys[:m, m] = z[free]
    sys[m, :m] = z[free]
    rhs = np.concatenate([rhs_lin, [target]])
    sol, *_ = np.linalg.lstsq(sys, rhs, rcond=None)
    cand = fixed
    cand[free] = sol[:m]
    slack = 1e-12 * max(1.0, float(upper.max()))
    if np.any(cand < -slack) or np.any(cand > upper + slack):
        return a
    cand = np.clip(cand, 0.0, upper)
    if abs(z @ cand) > 1e-9 * max(1.0, float(upper.max())):
        return a
    return cand


def _bias_from(a: np.ndarray, z: np.ndarray, k: np.ndarray,
               upper: np.ndarray) -> float:
    scores = k @ (a * z)
    tol = 1e-8 * max(1.0, float(upper.max()))
    in_bound = (a > tol) & (a < upper - tol)
    if in_bound.any():
        return float(np.mean(z[in_bound] - scores[in_bound]))
    # otherwise b is only interval-constrained; take the midpoint
    lo, hi = -np.inf, np.inf
    for i in range(a.size):
        bound = z[i] - scores[i]
        at_lower = a[i] <= tol
        if (at_lower and z[i] > 0) or (not at_lower and z[i] < 0):
            lo = max(lo, bound)
        else:
            hi = min(hi, bound)
    if not np.isfinite(lo):
        lo = hi
    if not np.isfinite(hi):
        hi = lo
    return float(0.5 * (lo + hi))


def reference_dual_solve(x, labels, kernel: KernelSpec, c) -> DualSolution:
    """Solve the dual to high accuracy on a small instance.

    ``c`` is the box bound, either a scalar or one value per row (the
    latter covers class-weighted boxes). Raises a size error above
    12 rows or below 2, and a degenerate-labels error when only one
    class is present.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    z = np.asarray(labels, dtype=float)
    n = x.shape[0]
    if n > MAX_ROWS:
        raise SizeError(f"reference solver handles at most {MAX_ROWS} rows, got {n}")
    if n < 2:
        raise SizeError("reference solver needs at least 2 rows")
    if z.shape != (n,) or not np.all(np.isin(z, (-1.0, 1.0))):
        raise DegenerateLabelsError("labels must be -1/+1, one per row")
    if np.all(z == z[0]):
        raise DegenerateLabelsError("both classes are required")
    upper = np.broadcast_to(np.asarray(c, dtype=float), (n,)).copy()
    if not np.all(upper > 0):
        raise DegenerateLabelsError("box bound must be positive")

    k = gram_matrix(kernel, x)
    q = np.outer(z, z) * k
    eigs = np.linalg.eigvalsh(0.5 * (q + q.T))
    scale = max(abs(float(eigs[0])), abs(float(eigs[-1])), 1e-12)
    step = 1.0 / scale
    concave = float(eigs[0]) >= -1e-8 * scale

    rng = np.random.default_rng(0)
    starts = [np.zeros(n), _project(0.5 * upper, z, upper)]
    extra = 2 if concave else 10
    for _ in range(extra):
        starts.append(_project(rng.uniform(0.0, upper), z, upper))

    best, best_obj = None, -np.inf
    for start in starts:
        a = _ascend(start, q, z, upper, step, iters=400)
        a = _pair_polish(a, q, k, z, upper)
        a = _active_set_refine(a, q, z, upper)
        a = _pair_polish(a, q, k, z, upper, max_sweeps=40)
        obj = _objective(a, q)
        if obj > best_obj:
            best, best_obj = a, obj
    bias = _bias_from(best, z, k, upper)
    return DualSolution(alphas=best, bias=bias, objective=best_obj)
