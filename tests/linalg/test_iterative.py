"""Tests for the conjugate-gradient reference solver."""

import numpy as np
import pytest

from repro.errors import ConvergenceError, ValidationError
from repro.linalg.iterative import (
    conjugate_gradient,
    direct_reference_solution,
)
from repro.workloads.poisson import grid2d_poisson


def grid_system(side, boost=0.2, seed=0):
    """Grid Laplacian grounded by *boost* per vertex, random rhs."""
    a = grid2d_poisson(side, ground=boost).to_matrix()
    b = np.random.default_rng(seed).standard_normal(side * side)
    return a, b


def test_cg_solves_grid():
    a, b = grid_system(7)
    res = conjugate_gradient(a, b, tol=1e-12)
    assert res.converged
    assert np.allclose(a.to_scipy() @ res.x, b, atol=1e-8)
    assert res.residual_norms[-1] < res.residual_norms[0]


def test_cg_dense_input():
    a, b = grid_system(4)
    res = conjugate_gradient(a.to_dense(), b, tol=1e-12)
    assert res.converged
    assert np.allclose(a.to_dense() @ res.x, b, atol=1e-8)


def test_cg_warm_start():
    a, b = grid_system(5)
    x_exact = conjugate_gradient(a, b, tol=1e-13).x
    res = conjugate_gradient(a, b, x0=x_exact, tol=1e-10)
    assert res.iterations == 0
    assert res.converged


def test_cg_maxiter_budget():
    a, b = grid_system(8, boost=1e-4)
    res = conjugate_gradient(a, b, tol=1e-14, maxiter=2)
    assert not res.converged
    assert res.iterations == 2
    with pytest.raises(ConvergenceError):
        conjugate_gradient(a, b, tol=1e-14, maxiter=2, raise_on_fail=True)


def test_cg_detects_indefinite():
    a = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(ConvergenceError):
        conjugate_gradient(a, np.array([1.0, 1.0]), raise_on_fail=True)


def test_cg_zero_rhs():
    a, _ = grid_system(3)
    res = conjugate_gradient(a, np.zeros(9))
    assert res.converged
    assert np.allclose(res.x, 0.0)


def test_cg_rejects_rectangular():
    with pytest.raises(ValidationError):
        conjugate_gradient(np.zeros((2, 3)), np.zeros(2))


def test_direct_reference_solution_small_and_large():
    a, b = grid_system(4)
    x = direct_reference_solution(a, b)
    assert np.allclose(a.to_scipy() @ x, b, atol=1e-9)
    # large branch goes through CG
    a2, b2 = grid_system(26)  # 676 unknowns > 600 threshold
    x2 = direct_reference_solution(a2, b2)
    assert np.allclose(a2.to_scipy() @ x2, b2, atol=1e-6)


def test_direct_reference_solution_dense_input():
    a, b = grid_system(3)
    x = direct_reference_solution(a.to_dense(), b)
    assert np.allclose(a.to_dense() @ x, b, atol=1e-10)


def test_histories_are_monotone_for_cg_on_wellconditioned():
    a, b = grid_system(5, boost=1.0)
    res = conjugate_gradient(a, b, tol=1e-12)
    # CG residual is not strictly monotone in general, but final < initial
    assert res.residual_norms[-1] < 1e-6 * res.residual_norms[0]
