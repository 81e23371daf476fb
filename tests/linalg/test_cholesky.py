"""Tests for the factor objects and sparse front end."""

import numpy as np
import pytest

from repro.errors import NotSpdError
from repro.linalg.cholesky import (
    SpdFactor,
    factor_spd,
    factor_symmetric,
)
from repro.workloads.poisson import grid2d_poisson


def random_spd(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.geomspace(1, 50, n)) @ q.T


def grid_spd(n_side):
    """Small grid Laplacian + boost (sparse and SPD)."""
    return grid2d_poisson(n_side, ground=0.3).to_matrix()


def test_factor_spd_dense_solve():
    rng = np.random.default_rng(0)
    a = random_spd(rng, 20)
    b = rng.standard_normal(20)
    f = factor_spd(a)
    assert f.n == 20
    assert np.allclose(f.solve(b), np.linalg.solve(a, b), atol=1e-8)


def test_factor_spd_matrix_rhs():
    rng = np.random.default_rng(1)
    a = random_spd(rng, 10)
    B = rng.standard_normal((10, 3))
    assert np.allclose(factor_spd(a).solve(B), np.linalg.solve(a, B), atol=1e-8)


def test_factor_spd_sparse_input():
    m = grid_spd(5)
    rng = np.random.default_rng(2)
    b = rng.standard_normal(25)
    f = factor_spd(m)
    assert np.allclose(m.matvec(f.solve(b)), b, atol=1e-9)


def test_factor_spd_rejects_asymmetric():
    with pytest.raises(Exception):
        factor_spd(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_factor_spd_skip_symmetry_check():
    a = np.array([[2.0, 1.0 + 1e-13], [1.0, 2.0]])
    factor_spd(a, check_symmetry=False)


def test_inverse_cached_and_correct():
    rng = np.random.default_rng(3)
    a = random_spd(rng, 15)
    f = factor_spd(a)
    inv1 = f.inverse()
    inv2 = f.inverse()
    assert inv1 is inv2  # cached
    assert np.allclose(inv1, np.linalg.inv(a), atol=1e-7)


def test_inverse_of_sparse_input_matches_numpy():
    m = grid_spd(4)
    f = factor_spd(m)
    assert np.allclose(f.inverse(), np.linalg.inv(m.to_dense()), atol=1e-7)


def test_spd_factor_direct_construction():
    a = grid_spd(3).to_dense()
    from repro.linalg.dense import cholesky_factor

    f = SpdFactor(cholesky_factor(a))
    b = np.arange(9.0)
    assert np.allclose(a @ f.solve(b), b, atol=1e-9)


def test_logdet():
    rng = np.random.default_rng(4)
    a = random_spd(rng, 8)
    f = factor_spd(a)
    assert f.logdet() == pytest.approx(np.linalg.slogdet(a)[1], rel=1e-8)


def test_factor_symmetric_indefinite():
    a = np.array([[2.0, 1.0], [1.0, -3.0]])
    f = factor_symmetric(a)
    pos, zero, neg = f.inertia()
    assert (pos, zero, neg) == (1, 0, 1)
    b = np.array([1.0, 1.0])
    assert np.allclose(a @ f.solve(b), b, atol=1e-10)


def test_not_spd_raises():
    with pytest.raises(NotSpdError):
        factor_spd(np.array([[0.0, 0.0], [0.0, 1.0]]))
