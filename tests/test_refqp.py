"""Reference dual solver: analytic cases and an independent QP cross-check."""

import numpy as np
import pytest

from dosegate.errors import DegenerateLabelsError
from dosegate.kernels import KernelSpec

from reference_qp import SizeError, gram_matrix, reference_dual_solve

TWO_POINTS = np.array([[0.0, 0.0], [2.0, 2.0]])
TWO_LABELS = np.array([-1.0, 1.0])
LINEAR = KernelSpec(variant="linear")


def test_two_point_analytic_optimum():
    # dual reduces to max 2a - 4a^2, optimum a = 0.25, objective 0.25
    sol = reference_dual_solve(TWO_POINTS, TWO_LABELS, LINEAR, 1000.0)
    assert sol.alphas == pytest.approx([0.25, 0.25], abs=1e-9)
    assert sol.objective == pytest.approx(0.25, abs=1e-8)
    assert sol.bias == pytest.approx(-1.0, abs=1e-9)


def test_two_point_clipped_at_small_box():
    sol = reference_dual_solve(TWO_POINTS, TWO_LABELS, LINEAR, 0.1)
    assert sol.alphas == pytest.approx([0.1, 0.1], abs=1e-12)
    # objective at the corner: 0.2 - 0.5 * 0.1^2 * 8 = 0.16
    assert sol.objective == pytest.approx(0.16, abs=1e-10)


def test_single_row_rejected():
    with pytest.raises(SizeError):
        reference_dual_solve(TWO_POINTS[:1], TWO_LABELS[:1], LINEAR, 1.0)


def test_oversized_instance_rejected():
    x = np.zeros((13, 2))
    labels = np.array([-1.0, 1.0] * 6 + [1.0])
    with pytest.raises(SizeError):
        reference_dual_solve(x, labels, LINEAR, 1.0)


def test_single_class_rejected():
    with pytest.raises(DegenerateLabelsError):
        reference_dual_solve(TWO_POINTS, np.array([1.0, 1.0]), LINEAR, 1.0)


def test_solution_is_feasible():
    rng = np.random.default_rng(2)
    for trial in range(30):
        n = int(rng.integers(2, 9))
        x = rng.normal(size=(n, 3))
        labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        if abs(labels.sum()) == n:
            labels[0] = -labels[0]
        c = float(rng.choice([0.1, 1.0, 100.0]))
        sol = reference_dual_solve(x, labels, KernelSpec(variant="rbf", delta=1.0), c)
        assert np.all(sol.alphas >= 0.0) and np.all(sol.alphas <= c)
        assert abs(sol.alphas @ labels) <= 1e-8 * max(1.0, c)


def test_per_row_box_vector():
    upper = np.array([0.05, 0.4])
    sol = reference_dual_solve(TWO_POINTS, TWO_LABELS, LINEAR, upper)
    # equality constraint forces both alphas to the tighter bound
    assert sol.alphas == pytest.approx([0.05, 0.05], abs=1e-12)


def test_against_scipy_qp():
    scipy_optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(77)
    specs = [
        KernelSpec(variant="linear"),
        KernelSpec(variant="polynomial", degree=2, offset=1.0),
        KernelSpec(variant="rbf", delta=1.2),
    ]
    for trial in range(18):
        n = int(rng.integers(3, 9))
        x = rng.normal(size=(n, int(rng.integers(1, 4))))
        labels = np.where(rng.random(n) < 0.5, -1.0, 1.0)
        if abs(labels.sum()) == n:
            labels[0] = -labels[0]
        c = float(rng.choice([0.1, 1.0, 10.0]))
        spec = specs[trial % len(specs)]

        k = gram_matrix(spec, x)
        q = k * np.outer(labels, labels)

        def neg_obj(a, q=q):
            return -(a.sum() - 0.5 * a @ q @ a)

        def neg_grad(a, q=q):
            return -(np.ones_like(a) - q @ a)

        best = None
        for start in range(4):
            a0 = rng.uniform(0.0, c, size=n) if start else np.zeros(n)
            a0 -= labels * (a0 @ labels) / n
            res = scipy_optimize.minimize(
                neg_obj, np.clip(a0, 0.0, c), jac=neg_grad, method="SLSQP",
                bounds=[(0.0, c)] * n,
                constraints=[{"type": "eq", "fun": lambda a, z=labels: a @ z,
                              "jac": lambda a, z=labels: z}],
                options={"maxiter": 500, "ftol": 1e-12},
            )
            if best is None or res.fun < best:
                best = res.fun

        sol = reference_dual_solve(x, labels, spec, c)
        scale = max(1.0, abs(best))
        # concave problem: both routes must meet the same optimum value
        assert sol.objective >= -best - 1e-6 * scale
        assert abs(sol.objective - (-best)) <= 1e-5 * scale
