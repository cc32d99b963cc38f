"""Soft-margin kernel SVM.

The trainer maximizes the dual

    W(a) = sum_i a_i - 1/2 sum_ij a_i a_j z_i z_j K(x_i, x_j)
    s.t.  0 <= a_i <= C_i,  sum_i a_i z_i = 0

where C_i is the box bound, optionally scaled per class to counter
imbalance. It first factors the kernel by greedy pivoted Cholesky,
K ~ V V^T, one kernel column per pivot. A positive semidefinite kernel
of low rank (linear, polynomial and anova on these features) is solved
on that factor by a Mehrotra predictor-corrector interior-point method
whose Newton systems cost O(n rank^2) through the Sherman-Morrison-
Woodbury identity (Fine & Scheinberg, JMLR 2001; Ferris & Munson, SIAM
J. Optim. 2002). Its rank x rank matrix I + W^T D^-1 W is formed as
I + Y^T Y with Y = D^-1/2 W, which numpy computes as a symmetric product
(BLAS syrk: 0.27 ms against 0.46 ms for the general product on 666 x 109,
one thread), and solved by np.linalg.solve. The method stops at the
optimal face rather than at its own tolerance (the crossover of
Mehrotra & Ye, Math. Programming 1993, and Andersen & Ye, Management
Science 1996): once an iterate's merit is within KKT_TOLERANCE, each
iteration snaps it to the bounds it shows active, settles the free
multipliers on the factor and stops if the KKT conditions then hold at
IPM_TOLERANCE on the factor's values. train repeats that finish on exact
kernel values and resumes the method if it misses. The factor depends
only on the rows, so a caller that fits many subsets of one set of rows
(cross-validation) factors the set once and gives each fit its rows of
the factor. A kernel the factor shows indefinite (sigmoid) or of rank
above LOW_RANK_CAP (RBF) is solved by SMO on the dense Gram matrix: pick
a maximal KKT violator, pair it with the index of largest error
difference, and update the pair analytically. Either way the bias, the
KKT verdict and the dual objective come from exact kernel values.

SMO starts at zero, or at the upper corner a = C (alpha seeding, DeCoste
& Wagstaff, KDD 2000) when three things hold: the factor saw no negative
pivot, so the kernel went to SMO for its rank only; sum_i z_i C_i = 0 to
rounding, as balanced class weights make it, so the corner is feasible;
and W(C) > 0 = W(0). At small C most multipliers end on the upper bound,
so the corner start needs a fraction of the pair updates. An indefinite
kernel (sigmoid) always starts at zero, because there the start picks
which local optimum SMO finds.

Models keep their support vectors in standardized feature space along
with the scaler, so decision_values accepts raw-space inputs and scales
internally. w is never formed; everything goes through the kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateLabelsError, DomainError, NumericalError
from .kernels import KernelSpec, kernel_matrix

# The factored interior-point path serves kernels whose pivoted Cholesky
# factor stops by this rank; a kernel of higher rank goes to SMO on the
# dense Gram matrix, as does an indefinite one. The cap sits at the
# measured crossover: on 2118 training rows at C=0.1 (one BLAS thread)
# the interior-point iterations take 0.12 s at rank 100, 0.31 s at rank
# 200 and 0.64 s at rank 300, while SMO took 0.3-0.5 s on the same rows
# for its cheapest kernels (sigmoid, RBF, linear). SMO's cheaper updates
# do not move it for the low-rank kernels, which need many more updates:
# the whole fit takes 0.12 s on the factor against 0.81 s (Gram matrix
# and SMO) for the paper's kernel, 0.05 against 0.12 s for linear and
# 0.23 against 0.35 s for anova. The paper's kernel has rank 95-124 on
# these features.
LOW_RANK_CAP = 200
# A residual diagonal below this share of the largest kernel diagonal
# ends the factor; one below minus this share shows an indefinite kernel.
PIVOT_TOLERANCE = 1e-12
# the interior point's merit: dual residual in margin units, primal
# residuals and gap relative; also the KKT violation a finish must meet
IPM_TOLERANCE = 1e-9
STEP_FRACTION = 0.995  # of the step to the boundary of the positive orthant
SUPPORT_EPSILON = 1e-12  # a multiplier above this makes its row a support vector
# the KKT violation, in margin units, that a converged model meets
KKT_TOLERANCE = 1e-3
# bounds the work: SMO makes at most MAX_PASSES * n pair updates, the
# interior-point method at most MAX_PASSES iterations, and a fit that
# uses it up is not converged
MAX_PASSES = 200
# Scoring evaluates the kernel against the support vectors this many rows
# at a time, as train's exact finish does against the multipliers off
# zero: at 1,288 support vectors a block is 2.6 MB, where a 4,237-row
# cohort in one product was 43.7 MB. A fresh-process `gate
# --jsonl` on 4,237 rows peaks 11.5 MB above its import with these blocks
# and 26.4 MB with 1,024-row ones (one BLAS thread). At one BLAS thread a
# row scores bit for bit as in one product: blocks start at a multiple of
# four rows (the grouping of OpenBLAS's matrix-vector kernel), and no
# block but a lone input row has one row (numpy multiplies a single row
# by another path), so a one-row tail joins the block before it.
SCORE_BLOCK_ROWS = 256


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for the dual solver.

    balance_classes scales C per class by inverse class frequency.
    seed randomizes only tie-breaking in SMO's second-index search and
    crossval.select_c's folds, so results are reproducible bit for bit.
    """

    c_regularization: float = 1.0
    balance_classes: bool = True
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.c_regularization < np.inf:
            raise DomainError("c_regularization must be finite and > 0")


@dataclass(frozen=True)
class SvmModel:
    """Trained classifier: the kernel expansion plus its scaler."""

    kernel: KernelSpec
    support_vectors: np.ndarray  # (m, d), standardized space
    alphas: np.ndarray  # (m,), all in (0, C_i]
    sv_labels: np.ndarray  # (m,), -1/+1
    bias: float
    feature_names: tuple[str, ...]
    scaler_means: np.ndarray  # (d,)
    scaler_scales: np.ndarray  # (d,)
    converged: bool
    max_kkt_violation: float
    dual_objective: float


def _box_bounds(z: np.ndarray, config: TrainConfig) -> np.ndarray:
    if config.balance_classes:
        n = z.size
        n_pos = int(np.count_nonzero(z > 0))
        n_neg = n - n_pos
        w_neg = n / (2.0 * n_neg)
        w_pos = n / (2.0 * n_pos)
    else:
        w_neg = w_pos = 1.0
    return np.where(z > 0, config.c_regularization * w_pos, config.c_regularization * w_neg)


def _kkt(alpha: np.ndarray, z: np.ndarray, scores: np.ndarray, upper: np.ndarray,
         snap: np.ndarray) -> tuple[float, float]:
    """The bias _final_bias sets for multipliers alpha with scores
    sum_j a_j z_j K(x_i, x_j), and the largest KKT violation under it."""
    bias = _final_bias(alpha, z, scores, upper, snap)
    r = z * (scores + bias - z)
    grow = np.where(alpha < upper - snap, -r, -np.inf)
    shrink = np.where(alpha > snap, r, -np.inf)
    return bias, float(np.maximum(grow, shrink).max())


def _final_bias(alpha: np.ndarray, z: np.ndarray, scores: np.ndarray,
                upper: np.ndarray, snap: np.ndarray) -> float:
    in_bound = (alpha > snap) & (alpha < upper - snap)
    if in_bound.any():
        return float(np.mean(z[in_bound] - scores[in_bound]))
    # a row at zero with z > 0, or off zero with z < 0, bounds the bias
    # from below; every other row bounds it from above (fmax and fmin
    # pass over a NaN bound)
    bounds = z - scores
    low = (alpha <= snap) == (z > 0)
    lo = float(np.fmax.reduce(bounds[low], initial=-np.inf))
    hi = float(np.fmin.reduce(bounds[~low], initial=np.inf))
    if not np.isfinite(lo):
        lo = hi
    if not np.isfinite(hi):
        hi = lo
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise NumericalError("bias is unconstrained; training degenerate")
    return float(0.5 * (lo + hi))


def _kernel_diagonal(spec: KernelSpec, x: np.ndarray) -> np.ndarray:
    # block by block through kernel_matrix, so the diagonal comes from
    # the same formula as the factor's columns
    blocks = np.array_split(x, max(1, x.shape[0] // 64))
    return np.concatenate([np.diagonal(kernel_matrix(spec, blk, blk)) for blk in blocks])


def pivoted_cholesky(spec: KernelSpec, x: np.ndarray) -> tuple[np.ndarray | None, bool]:
    """Greedy pivoted Cholesky factor V (n x rank) with K ~ V V^T.

    Each step pivots on the largest residual diagonal and computes that
    one kernel column. Returns (V, False), or (None, indefinite) when the
    factor stops early: indefinite is True when a residual diagonal fell
    below zero by more than rounding (the kernel is indefinite on x) and
    False when the rank would pass LOW_RANK_CAP before any did.
    """
    n = x.shape[0]
    probe = LOW_RANK_CAP + 1
    if n > probe:
        # the kernel on some rows has no more rank than on all of them and
        # is indefinite only if it is on all of them, so the first rows
        # turn a full-rank kernel away at a fraction of the full cost
        head, indefinite = pivoted_cholesky(spec, x[:probe])
        if head is None:
            return None, indefinite
    residual = _kernel_diagonal(spec, x)
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


def _step_to_boundary(values: np.ndarray, steps: np.ndarray) -> float:
    """Largest t with values + t * steps >= 0, for positive values: that
    is t * steps / values >= -1, so t = 1 / -min(steps / values) when the
    minimum is negative."""
    steepest = float(np.min(steps / values))
    return -1.0 / steepest if steepest < 0.0 else np.inf


def _newton_step(factor: np.ndarray, z: np.ndarray, v: np.ndarray, r_dual: np.ndarray,
                 r_eq: float, r_box: np.ndarray, complementarity: np.ndarray):
    """The predictor-corrector step from the stacked iterate v = (a, s,
    lam, xi) with the residuals _interior_point measured there: (dv, db,
    t) for v + t dv and b + t db. Its n x rank arrays end with it. A step
    that is not finite makes the next merit not finite, which ends the
    method at its best iterate."""
    n, rank = factor.shape
    a, s, lam, xi = v.reshape(4, n)
    d = lam / a + xi / s
    root = np.sqrt(d)[:, None]
    # with W = Z V for Z = diag(z), W^T D^-1 W = Y^T Y for Y = D^-1/2 V
    y = factor / root
    inner = np.eye(rank) + y.T @ y  # a symmetric product

    def solve(rhs):
        # (D + W W^T)^-1 rhs = Z (D + V V^T)^-1 Z rhs for the columns of rhs
        scaled = z[:, None] * rhs / root
        return z[:, None] * (scaled - y @ np.linalg.solve(inner, y.T @ scaled)) / root

    def direction(c, mz=None):
        # c stacks the complementarity targets of (a lam, s xi)
        g = -r_dual - (c[n:] + xi * r_box) / s + c[:n] / a
        if mz is None:
            mz, mg = solve(np.column_stack([z, g])).T
        else:
            mg = solve(g[:, None])[:, 0]
        db = (z @ mg + r_eq) / (z @ mz)
        dv = np.empty(4 * n)
        dv[:n] = mg - db * mz
        dv[n:2 * n] = -r_box - dv[:n]
        dv[2 * n:] = (c - v[2 * n:] * dv[:2 * n]) / v[:2 * n]
        return dv, db, mz

    dv, _, mz = direction(-complementarity)
    t = min(1.0, _step_to_boundary(v, dv))
    mu = complementarity.sum() / (2 * n)
    trial = v + t * dv
    mu_aff = (trial[:2 * n] @ trial[2 * n:]) / (2 * n)
    target = (mu_aff / mu) ** 3 * mu
    dv, db, _ = direction(target - complementarity - dv[:2 * n] * dv[2 * n:], mz)
    return dv, db, min(1.0, STEP_FRACTION * _step_to_boundary(v, dv))


def _factor_finish(factor: np.ndarray, iterate: tuple, z: np.ndarray,
                   upper: np.ndarray, snap: np.ndarray) -> bool:
    """Whether the interior-point iterate, snapped and with its free
    multipliers settled on the factor, meets the KKT conditions at
    IPM_TOLERANCE on the factor's values K ~ V V^T. The free rows' V V^T
    and the margins through V cost O((n + m^2) rank) for m free
    multipliers, where the exact finish computes a kernel column for
    every multiplier off zero."""
    alpha = _snap(*iterate, z, upper)
    free = (alpha > 0.0) & (alpha < upper)
    rows = factor[free]
    margins = rows @ (factor.T @ np.where(free, 0.0, alpha * z))
    alpha = _settle_free(rows @ rows.T, margins, alpha, z, upper)
    scores = factor @ (factor.T @ (alpha * z))
    return _kkt(alpha, z, scores, upper, snap)[1] <= IPM_TOLERANCE


def _interior_point(factor: np.ndarray, z: np.ndarray, upper: np.ndarray,
                    snap: np.ndarray):
    """Mehrotra predictor-corrector method for the dual with Q = W W^T,
    W = Z V for the kernel factor V and Z = diag(z).

    Solves  min 1/2 a^T Q a - sum(a)  s.t.  z^T a = 0,  a + s = upper,
    a >= 0, s >= 0, keeping the slack s as a variable, with multipliers
    lam >= 0 on a and xi >= 0 on s and b on the equality (the bias).
    Each Newton system reduces to (Q + D) da + z db = g with D diagonal,
    solved through Sherman-Morrison-Woodbury with the rank x rank matrix
    I + W^T D^-1 W, so an iteration costs O(n rank^2).

    A generator of (iterate (a, s, lam, xi), solved) candidates: each
    iterate within KKT_TOLERANCE that passes _factor_finish, and last the
    best iterate, with solved False when the method used up its
    MAX_PASSES iterations. Its caller takes the first candidate
    whose finish holds on exact kernel values and resumes it otherwise.
    It reads the unsigned factor that its caller keeps, and a Newton
    step's n x rank arrays end with _newton_step, so while a candidate
    waits the generator holds no n x rank array of its own.
    """
    n = z.size
    half = 0.5 * upper
    # (a, s, lam, xi) stacked, so a step moves all four in one operation
    v = np.concatenate([half, upper - half, np.ones(2 * n)])
    b = 0.0
    box_scale = float(upper.max())
    best, best_merit, stalled = v, np.inf, 0
    for _ in range(MAX_PASSES):
        a, s, lam, xi = v.reshape(4, n)
        qa = z * (factor @ (factor.T @ (z * a)))
        r_dual = qa - 1.0 + b * z + xi - lam
        r_eq = float(z @ a)
        r_box = a + s - upper
        complementarity = v[:2 * n] * v[2 * n:]  # a lam, then s xi
        gap = float(complementarity.sum())
        objective = float(0.5 * (a @ qa) - a.sum())
        # the dual residual is in margin units, like the KKT tolerance;
        # the others are relative, so that a tiny C is solved as finely
        merit = max(float(np.abs(r_dual).max()),
                    max(abs(r_eq), float(np.abs(r_box).max())) / box_scale,
                    gap / max(abs(objective), np.finfo(float).tiny))
        if not merit < best_merit:
            # rounding ends progress before the tolerance on some inputs;
            # past that point the iterates only drift, so keep the best
            stalled += 1
            if stalled == 3 or not np.isfinite(merit):
                break
        else:
            best, best_merit, stalled = v, merit, 0
        if merit <= IPM_TOLERANCE:
            break
        if merit <= KKT_TOLERANCE and _factor_finish(factor, (a, s, lam, xi), z, upper, snap):
            yield (a, s, lam, xi), True
        dv, db, t = _newton_step(factor, z, v, r_dual, r_eq, r_box, complementarity)
        v = v + t * dv
        b += t * db
    else:
        yield tuple(best.reshape(4, n)), False
        return
    yield tuple(best.reshape(4, n)), True


def _snap(a: np.ndarray, s: np.ndarray, lam: np.ndarray, xi: np.ndarray,
          z: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Put each multiplier on the bound whose constraint the interior-point
    iterate shows active, then restore sum(a z) = 0 on the free ones.

    a_i lam_i and s_i xi_i both tend to the same small mu, so a bound a_i
    tends to 0 while its lam_i does not, and a free a_i the other way
    round: a_i < lam_i marks a_i = 0 and s_i < xi_i marks a_i = upper_i.
    The restoring shift moves each free multiplier in proportion to its
    distance from the nearer bound, so none leaves its box.
    """
    a = np.where(a < lam, 0.0, np.where(s < xi, upper, a))
    free = (a > 0.0) & (a < upper)
    room = np.minimum(a[free], upper[free] - a[free])
    excess = float(z @ a)
    if room.sum() > abs(excess):
        a[free] -= excess * z[free] * room / room.sum()
    return a


def _settle_free(gram: np.ndarray, margins: np.ndarray, a: np.ndarray,
                 z: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Put the free margins back on 1.

    Snapping moved some multipliers by up to the iterate's accuracy.
    With the bound multipliers held, a change d to the free ones (those
    strictly inside their box) and a bias b with z_i f(x_i) = 1 on the
    free set and sum(a z) = 0 solve a linear system in ``gram``, the
    free rows' kernel values against each other, where ``margins`` holds
    the bound multipliers' part of sum_j a_j z_j K(x_i, x_j) on the free
    rows. A free multiplier that the change would push out of its box
    stops on its bound and is held there, and the rest is solved again.
    """
    a = a.copy()
    rows = np.flatnonzero((a > 0.0) & (a < upper))  # those of gram and margins
    while True:
        free = (a[rows] > 0.0) & (a[rows] < upper[rows])
        index = rows[free]
        m = index.size
        if m == 0:
            return a
        system = np.zeros((m + 1, m + 1))
        system[:m, :m] = gram[np.ix_(free, free)]
        # a ridge at the factor's resolution keeps the system regular when
        # the free set outnumbers the kernel's rank; it shifts the margins
        # by ridge * |d|, far below any KKT tolerance
        ridge = PIVOT_TOLERANCE * max(1.0, float(np.diagonal(system).max()))
        system[np.arange(m), np.arange(m)] += ridge
        system[:m, m] = 1.0
        system[m, :m] = 1.0
        scores = gram[free] @ (a[rows] * z[rows]) + margins[free]
        rhs = np.append(z[index] - scores, -float(z @ a))
        step = z[index] * np.linalg.solve(system, rhs)[:m]
        current = a[index]
        with np.errstate(divide="ignore", invalid="ignore"):
            room = np.where(step < 0, -current / step,
                            np.where(step > 0, (upper[index] - current) / step, np.inf))
        block = int(np.argmin(room))
        moved = np.clip(current + min(1.0, room[block]) * step, 0.0, upper[index])
        if room[block] >= 1.0:
            a[index] = moved
            return a
        moved[block] = 0.0 if step[block] < 0 else upper[index][block]
        a[index] = moved


def _smo_start(gram: np.ndarray, z: np.ndarray, upper: np.ndarray,
               indefinite: bool) -> tuple[np.ndarray, np.ndarray]:
    """SMO's first iterate and its scores gram @ (alpha * z): the upper
    corner where the module docstring's rule allows it, else zero."""
    n = z.size
    total = float(upper.sum())
    if not indefinite and abs(float(z @ upper)) <= n * np.finfo(float).eps * total:
        weighted = upper * z
        score = gram @ weighted
        if total - 0.5 * float(weighted @ score) > 0.0:
            return upper.copy(), score
    return np.zeros(n), np.zeros(n)


def _smo(gram: np.ndarray, z: np.ndarray, upper: np.ndarray, snap: np.ndarray,
         seed: int, alpha: np.ndarray, score: np.ndarray) -> tuple[np.ndarray, bool, int]:
    """Pairwise dual coordinate ascent on the dense Gram matrix from alpha,
    whose scores sum_j a_j z_j K(j, i) are ``score``; both are updated in
    place. Returns the multipliers, whether the KKT conditions held within
    tolerance, and the number of pair updates made.

    A pair update changes two multipliers, so the per-index state that
    follows from them (can alpha_i grow, can it shrink, is it free) is
    kept in arrays and changed at those two indices only, and every
    per-pass vector is formed in a buffer allocated once. Each state is
    an offset added to a candidate value, 0 where the move is open and
    -inf where it is blocked: for finite scores this orders the candidates
    as masking by np.where does, at a fraction of a masked ufunc's cost.
    So from alpha = 0 the updates are Platt's, as the loop kept in
    tests/reference_smo.py makes them, bit for bit."""
    rng = np.random.default_rng(seed)

    n = z.size
    b = 0.0
    tol = KKT_TOLERANCE
    budget = MAX_PASSES * n
    updates = 0
    excluded: set[int] = set()

    top = upper - snap
    grow_off = np.where(alpha < top, 0.0, -np.inf)
    shrink_off = np.where(alpha > snap, 0.0, -np.inf)
    free_off = grow_off + shrink_off
    n_free = int(np.count_nonzero(free_off == 0.0))
    err, r, grow, viol, pick, gap, row1, row2 = (np.empty(n) for _ in range(8))
    # take_step's scalars as Python floats: the same IEEE doubles as numpy
    # scalars, without their per-operation cost
    zs, caps, tops, snaps = z.tolist(), upper.tolist(), top.tolist(), snap.tolist()
    diag = np.diagonal(gram).tolist()

    def take_step(i1: int, i2: int) -> bool:
        nonlocal b, updates, n_free
        if i1 == i2:
            return False
        a1, a2 = alpha.item(i1), alpha.item(i2)
        z1, z2 = zs[i1], zs[i2]
        c1, c2 = caps[i1], caps[i2]
        e1 = score.item(i1) + b - z1
        e2 = score.item(i2) + b - z2
        s = z1 * z2
        if s < 0:
            lo, hi = max(0.0, a2 - a1), min(c2, c1 + a2 - a1)
        else:
            lo, hi = max(0.0, a1 + a2 - c1), min(c2, a1 + a2)
        if hi - lo < 1e-15:
            return False
        k11 = diag[i1]
        k22 = diag[i2]
        k12 = gram.item(i2, i1)
        eta = k11 + k22 - 2.0 * k12
        if eta > 1e-300:
            a2_new = a2 + z2 * (e1 - e2) / eta
            a2_new = min(max(a2_new, lo), hi)
        else:
            # flat or indefinite direction: the 1-D objective is convex,
            # so the maximum sits at a segment endpoint
            t_lo, t_hi = lo - a2, hi - a2
            gain_lo = t_lo * z2 * (e1 - e2) - 0.5 * t_lo * t_lo * eta
            gain_hi = t_hi * z2 * (e1 - e2) - 0.5 * t_hi * t_hi * eta
            a2_new = lo if gain_lo >= gain_hi else hi
        d2 = a2_new - a2
        if abs(d2) < 1e-12:
            return False
        if eta <= 1e-300 and d2 * z2 * (e1 - e2) - 0.5 * d2 * d2 * eta <= 1e-15:
            return False
        a1_new = a1 + s * (a2 - a2_new)
        if a1_new < snaps[i1]:
            a1_new = 0.0
        elif a1_new > tops[i1]:
            a1_new = c1
        if a2_new < snaps[i2]:
            a2_new = 0.0
        elif a2_new > tops[i2]:
            a2_new = c2
        d1, d2 = a1_new - a1, a2_new - a2
        b1 = b - e1 - z1 * d1 * k11 - z2 * d2 * k12
        b2 = b - e2 - z1 * d1 * k12 - z2 * d2 * k22
        if snaps[i1] < a1_new < tops[i1]:
            b_new = b1
        elif snaps[i2] < a2_new < tops[i2]:
            b_new = b2
        else:
            b_new = 0.5 * (b1 + b2)
        alpha[i1], alpha[i2] = a1_new, a2_new
        # rows rather than columns: contiguous reads of the same values,
        # because kernel_matrix(x, x) is exactly symmetric (numpy computes
        # x @ x.T by syrk, which mirrors one triangle, and every later
        # step is elementwise and symmetric in the pair)
        np.multiply(gram[i1], z1 * d1, out=row1)
        np.multiply(gram[i2], z2 * d2, out=row2)
        np.add(row1, row2, out=row1)
        np.add(score, row1, out=score)
        b = b_new
        updates += 1
        for i, a in ((i1, a1_new), (i2, a2_new)):
            grows, shrinks = a < tops[i], a > snaps[i]
            n_free += (grows and shrinks) - (free_off.item(i) == 0.0)
            grow_off[i] = 0.0 if grows else -np.inf
            shrink_off[i] = 0.0 if shrinks else -np.inf
            free_off[i] = 0.0 if grows and shrinks else -np.inf
        return True

    def second_choice(i1: int) -> bool:
        if n_free:
            np.subtract(err.item(i1), err, out=gap)
            np.abs(gap, out=gap)
            np.add(gap, free_off, out=gap)
            if take_step(i1, int(gap.argmax())):
                return True
            cand = np.flatnonzero(free_off == 0.0)
            start = int(rng.integers(cand.size))
            for off in range(cand.size):
                if take_step(i1, int(cand[(start + off) % cand.size])):
                    return True
        start = int(rng.integers(n))
        for off in range(n):
            if take_step(i1, (start + off) % n):
                return True
        return False

    converged = False
    refreshes_left = 50

    def refresh_scores() -> bool:
        # incremental score updates drift over thousands of steps;
        # recompute exactly before trusting a convergence/stall verdict
        nonlocal refreshes_left
        exact = gram @ (alpha * z)
        if float(np.max(np.abs(exact - score))) <= 0.05 * tol or refreshes_left <= 0:
            return False
        refreshes_left -= 1
        score[:] = exact
        return True

    def violations(bias_value: float) -> np.ndarray:
        """Each index's KKT violation under bias_value; err holds the errors."""
        np.add(score, bias_value, out=err)
        np.subtract(err, z, out=err)
        np.multiply(z, err, out=r)
        np.subtract(grow_off, r, out=grow)
        np.add(r, shrink_off, out=r)
        return np.maximum(grow, r, out=viol)

    while updates < budget:
        i1 = int(violations(b).argmax())
        if viol[i1] <= tol:
            if refresh_scores():
                continue
            # the stored model carries the averaged bias, so the verdict
            # must hold under that bias, not the running one
            b = _final_bias(alpha, z, score, upper, snap)
            if violations(b).max() <= tol:
                converged = True
                break
            excluded.clear()
            continue
        if excluded:
            np.copyto(pick, viol)
            pick[list(excluded)] = -np.inf
            i1 = int(pick.argmax())
            if pick[i1] <= tol:
                if refresh_scores():
                    excluded.clear()
                    continue
                # pair steps cannot repair a pure bias offset (it cancels in
                # e1 - e2); re-derive b once before giving up on the stall
                rule_b = _final_bias(alpha, z, score, upper, snap)
                if rule_b != b:
                    b = rule_b
                    if violations(b).max() <= tol:
                        converged = True
                        break
                    excluded.clear()
                    continue
                break  # every remaining violator already failed to move
        if second_choice(i1):
            excluded.clear()
        else:
            excluded.add(i1)

    return alpha, converged, updates


def train(x, labels, kernel: KernelSpec = KernelSpec(),
          config: TrainConfig = TrainConfig(), factor: tuple | None = None) -> SvmModel:
    """Fit the classifier on standardized rows ``x`` and their -1/+1
    ``labels``. The model gets generic feature names and an identity
    scaler; ``fit_gate`` puts the real ones on.

    The kernel is factored first; a positive semidefinite kernel of rank
    at most LOW_RANK_CAP is solved by the interior-point method on that
    factor, any other by SMO on the dense Gram matrix. Either way the
    bias, the KKT verdict and the dual objective come from exact kernel
    values.

    ``factor``, when given, stands in for pivoted_cholesky(kernel, x):
    it is that result, or (V[S], False) for the rows S of a larger set
    whose factor is V. V[S] factors these rows' kernel as well as V
    factors the set's: K[S, S] - V[S] V[S]^T is a principal submatrix of
    the positive semidefinite residual K - V V^T, so its diagonal keeps
    the bound the factor stopped at."""
    if labels is None:
        raise DegenerateLabelsError("training labels are required")
    data = np.atleast_2d(np.asarray(x, dtype=float))
    z = np.asarray(labels, dtype=float)
    if z.shape != (data.shape[0],):
        raise DomainError("one label per training row is required")
    if not np.all(np.isin(z, (-1.0, 1.0))):
        raise DomainError("labels must be -1 or +1")
    if not np.all(np.isfinite(data)):
        raise DomainError("training features must be finite")
    n, d = data.shape
    if n < 2 or np.all(z == z[0]):
        raise DegenerateLabelsError("training needs at least one example of each class")

    upper = _box_bounds(z, config)
    snap = 1e-12 * np.maximum(1.0, upper)
    factor, indefinite = pivoted_cholesky(kernel, data) if factor is None else factor
    if factor is None:
        gram = kernel_matrix(kernel, data, data)
        alpha, solved, _ = _smo(gram, z, upper, snap, config.seed,
                                *_smo_start(gram, z, upper, indefinite))
        final_scores = gram @ (alpha * z)
        bias, max_viol = _kkt(alpha, z, final_scores, upper, snap)
    else:
        # the exact finish: snap, settle on the free rows' kernel values
        # and judge on exact scores; a candidate that misses IPM_TOLERANCE
        # resumes the interior point, and its last candidate stands
        for iterate, solved in _interior_point(factor, z, upper, snap):
            alpha = _snap(*iterate, z, upper)
            live = np.flatnonzero(alpha)
            if solved:
                free = alpha[live] < upper[live]
                rows = kernel_matrix(kernel, data[live[free]], data[live])
                margins = rows[:, ~free] @ (alpha * z)[live[~free]]
                alpha = _settle_free(rows[:, free], margins, alpha, z, upper)
            final_scores = _kernel_scores(kernel, data, data[live], alpha[live] * z[live])
            bias, max_viol = _kkt(alpha, z, final_scores, upper, snap)
            if max_viol <= IPM_TOLERANCE:
                break

    objective = float(alpha.sum() - 0.5 * ((alpha * z) @ final_scores))

    keep = alpha > SUPPORT_EPSILON
    return SvmModel(
        kernel=kernel,
        support_vectors=data[keep].copy(),
        alphas=alpha[keep].copy(),
        sv_labels=z[keep].copy(),
        bias=bias,
        feature_names=tuple(f"f{i}" for i in range(d)),
        scaler_means=np.zeros(d),
        scaler_scales=np.ones(d),
        converged=solved and max_viol <= KKT_TOLERANCE,
        max_kkt_violation=max_viol,
        dual_objective=objective,
    )


def _kernel_scores(kernel: KernelSpec, rows: np.ndarray, vectors: np.ndarray,
                   coef: np.ndarray) -> np.ndarray:
    """sum_j coef_j K(x, vectors_j) for each row x of ``rows``, at most
    SCORE_BLOCK_ROWS + 1 rows at a time."""
    n = rows.shape[0]
    out = np.empty(n)
    start = 0
    while start < n:
        stop = start + SCORE_BLOCK_ROWS
        if stop == n - 1:
            stop = n
        out[start:stop] = kernel_matrix(kernel, rows[start:stop], vectors) @ coef
        start = stop
    return out


def decision_values(model: SvmModel, rows) -> np.ndarray:
    """Decision scores for raw-space rows; scaling happens here."""
    raw = np.atleast_2d(np.asarray(rows, dtype=float))
    if raw.shape[1] != model.scaler_means.size:
        raise DomainError(
            f"expected {model.scaler_means.size} features, got {raw.shape[1]}"
        )
    if model.alphas.size == 0:
        return np.full(raw.shape[0], model.bias)
    scaled = (raw - model.scaler_means) / model.scaler_scales
    return _kernel_scores(model.kernel, scaled, model.support_vectors,
                          model.alphas * model.sv_labels) + model.bias


def score_signs(scores: np.ndarray) -> np.ndarray:
    """The class of each decision value: +1 (HighRisk) at or above 0,
    else -1."""
    return np.where(scores >= 0.0, 1, -1)
