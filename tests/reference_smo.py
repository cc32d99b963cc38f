"""Reference SMO: the pair loop as it stood before its buffers.

Platt's sequential minimal optimization on the dense Gram matrix, from
alpha = 0, rebuilding every mask and violation vector on each pass.
`dosegate.svm._smo` keeps the same pair rule, float operations, random
draws and stopping logic with less work per update, so from a zero start
the two must return the same multipliers and verdict bit for bit. Used
only as a verification oracle. Its one addition is a count of the rare
paths it took, so that a test can show that an instance reaches them.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from dosegate import svm
from dosegate.svm import TrainConfig, _final_bias


def reference_smo(gram: np.ndarray, z: np.ndarray, upper: np.ndarray, snap: np.ndarray,
                  config: TrainConfig) -> tuple[np.ndarray, bool, Counter]:
    """Pairwise dual coordinate ascent on the dense Gram matrix; returns
    the multipliers, whether the KKT conditions held within tolerance, and
    how often it scanned the free set or every index for a second index
    and excluded a first index that no partner could move."""
    rng = np.random.default_rng(config.seed)

    n = z.size
    alpha = np.zeros(n)
    score = np.zeros(n)  # sum_j a_j z_j K(j, i); bias tracked separately
    b = 0.0
    tol = svm.KKT_TOLERANCE
    budget = svm.MAX_PASSES * n
    updates = 0
    excluded: set[int] = set()
    paths: Counter = Counter()

    def take_step(i1: int, i2: int) -> bool:
        nonlocal b, updates
        if i1 == i2:
            return False
        a1, a2 = alpha[i1], alpha[i2]
        z1, z2 = z[i1], z[i2]
        c1, c2 = upper[i1], upper[i2]
        e1 = score[i1] + b - z1
        e2 = score[i2] + b - z2
        s = z1 * z2
        if s < 0:
            lo, hi = max(0.0, a2 - a1), min(c2, c1 + a2 - a1)
        else:
            lo, hi = max(0.0, a1 + a2 - c1), min(c2, a1 + a2)
        if hi - lo < 1e-15:
            return False
        k11 = gram[i1, i1]
        k22 = gram[i2, i2]
        k12 = gram[i2, i1]
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
        if a1_new < snap[i1]:
            a1_new = 0.0
        elif a1_new > c1 - snap[i1]:
            a1_new = c1
        if a2_new < snap[i2]:
            a2_new = 0.0
        elif a2_new > c2 - snap[i2]:
            a2_new = c2
        d1, d2 = a1_new - a1, a2_new - a2
        b1 = b - e1 - z1 * d1 * k11 - z2 * d2 * k12
        b2 = b - e2 - z1 * d1 * k12 - z2 * d2 * k22
        if snap[i1] < a1_new < c1 - snap[i1]:
            b_new = b1
        elif snap[i2] < a2_new < c2 - snap[i2]:
            b_new = b2
        else:
            b_new = 0.5 * (b1 + b2)
        alpha[i1], alpha[i2] = a1_new, a2_new
        # rows rather than columns: contiguous reads of the same values,
        # because kernel_matrix(x, x) is exactly symmetric (numpy computes
        # x @ x.T by syrk, which mirrors one triangle, and every later
        # step is elementwise and symmetric in the pair)
        score[:] += z1 * d1 * gram[i1] + z2 * d2 * gram[i2]
        b = b_new
        updates += 1
        return True

    def second_choice(i1: int, err: np.ndarray, in_bound: np.ndarray) -> bool:
        cand = np.flatnonzero(in_bound)
        if cand.size:
            j = cand[int(np.argmax(np.abs(err[i1] - err[cand])))]
            if take_step(i1, j):
                return True
            paths["free_scan"] += 1
            start = int(rng.integers(cand.size))
            for off in range(cand.size):
                if take_step(i1, int(cand[(start + off) % cand.size])):
                    return True
        paths["index_scan"] += 1
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

    def max_violation(bias_value: float) -> float:
        r = z * (score + bias_value - z)
        grow = np.where(alpha < upper - snap, -r, -np.inf)
        shrink = np.where(alpha > snap, r, -np.inf)
        return float(np.maximum(grow, shrink).max())

    while updates < budget:
        err = score + b - z
        r = z * err
        grow = np.where(alpha < upper - snap, -r, -np.inf)
        shrink = np.where(alpha > snap, r, -np.inf)
        viol = np.maximum(grow, shrink)
        if float(viol.max()) <= tol:
            if refresh_scores():
                continue
            # the stored model carries the averaged bias, so the verdict
            # must hold under that bias, not the running one
            b = _final_bias(alpha, z, score, upper, snap)
            if max_violation(b) <= tol:
                converged = True
                break
            excluded.clear()
            continue
        pick = viol.copy()
        if excluded:
            pick[list(excluded)] = -np.inf
        if float(pick.max()) <= tol:
            if refresh_scores():
                excluded.clear()
                continue
            # pair steps cannot repair a pure bias offset (it cancels in
            # e1 - e2); re-derive b once before giving up on the stall
            rule_b = _final_bias(alpha, z, score, upper, snap)
            if rule_b != b:
                b = rule_b
                if max_violation(b) <= tol:
                    converged = True
                    break
                excluded.clear()
                continue
            break  # every remaining violator already failed to move
        i1 = int(np.argmax(pick))
        in_bound = (alpha > snap) & (alpha < upper - snap)
        if second_choice(i1, err, in_bound):
            excluded.clear()
        else:
            paths["excluded"] += 1
            excluded.add(i1)

    return alpha, converged, paths
