"""Tests for the dense factorization kernels (numpy/scipy as oracle)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NotSpdError, SingularMatrixError, ValidationError
from repro.linalg.dense import (
    cholesky_factor,
    cholesky_solve,
    invert_lower,
    ldlt_factor,
    ldlt_solve,
    solve_lower,
    solve_triangular_right_t,
    solve_upper,
)


def random_spd(rng, n, cond=10.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.geomspace(1.0, cond, n)
    return (q * eigs) @ q.T


# ----------------------------------------------------------------------
# Cholesky
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n", [1, 2, 3, 17, 48, 49, 120])
def test_cholesky_matches_numpy(n):
    rng = np.random.default_rng(n)
    a = random_spd(rng, n)
    L = cholesky_factor(a)
    assert np.allclose(L, np.linalg.cholesky(a), atol=1e-8)
    assert np.allclose(L @ L.T, a, atol=1e-9)
    assert np.array_equal(L, np.tril(L))


def test_cholesky_block_boundary_sizes():
    rng = np.random.default_rng(0)
    for n in (47, 48, 49, 96, 97):
        a = random_spd(rng, n)
        L = cholesky_factor(a, block=48)
        assert np.allclose(L @ L.T, a, atol=1e-8)


def test_cholesky_small_blocks_agree():
    rng = np.random.default_rng(1)
    a = random_spd(rng, 20)
    assert np.allclose(cholesky_factor(a, block=3), cholesky_factor(a, block=64))


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotSpdError):
        cholesky_factor(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_cholesky_rejects_negative_definite():
    with pytest.raises(NotSpdError):
        cholesky_factor(-np.eye(3))


def test_cholesky_rejects_nonsquare():
    with pytest.raises(ValidationError):
        cholesky_factor(np.zeros((2, 3)))


def test_cholesky_rejects_bad_block():
    with pytest.raises(ValidationError):
        cholesky_factor(np.eye(2), block=0)


def test_cholesky_solve():
    rng = np.random.default_rng(2)
    a = random_spd(rng, 30)
    b = rng.standard_normal(30)
    L = cholesky_factor(a)
    assert np.allclose(cholesky_solve(L, b), np.linalg.solve(a, b), atol=1e-8)


def test_cholesky_solve_multiple_rhs():
    rng = np.random.default_rng(3)
    a = random_spd(rng, 12)
    B = rng.standard_normal((12, 4))
    L = cholesky_factor(a)
    assert np.allclose(cholesky_solve(L, B), np.linalg.solve(a, B), atol=1e-9)


# ----------------------------------------------------------------------
# triangular kernels
# ----------------------------------------------------------------------
def test_solve_lower_and_upper():
    rng = np.random.default_rng(4)
    L = np.tril(rng.standard_normal((15, 15))) + 5 * np.eye(15)
    b = rng.standard_normal(15)
    assert np.allclose(L @ solve_lower(L, b), b, atol=1e-10)
    U = L.T
    assert np.allclose(U @ solve_upper(U, b), b, atol=1e-10)


def test_solve_lower_unit_diagonal():
    rng = np.random.default_rng(5)
    L = np.tril(rng.standard_normal((10, 10)), k=-1) + np.eye(10)
    b = rng.standard_normal(10)
    x = solve_lower(L, b, unit_diagonal=True)
    assert np.allclose(L @ x, b, atol=1e-10)


def test_solve_triangular_right_t():
    rng = np.random.default_rng(6)
    L = np.tril(rng.standard_normal((8, 8))) + 4 * np.eye(8)
    B = rng.standard_normal((5, 8))
    X = solve_triangular_right_t(L, B)
    assert np.allclose(X @ L.T, B, atol=1e-10)


def test_invert_lower():
    rng = np.random.default_rng(7)
    L = np.tril(rng.standard_normal((20, 20))) + 6 * np.eye(20)
    Linv = invert_lower(L)
    assert np.allclose(Linv @ L, np.eye(20), atol=1e-9)
    assert np.array_equal(Linv, np.tril(Linv))


def test_invert_lower_singular():
    L = np.array([[1.0, 0.0], [1.0, 0.0]])
    with pytest.raises(SingularMatrixError):
        invert_lower(L)


# ----------------------------------------------------------------------
# LDL^T
# ----------------------------------------------------------------------
def test_ldlt_spd_agrees_with_cholesky():
    rng = np.random.default_rng(9)
    a = random_spd(rng, 14)
    L, d = ldlt_factor(a)
    assert np.allclose((L * d) @ L.T, a, atol=1e-9)
    assert np.all(d > 0)


def test_ldlt_indefinite_quasidefinite():
    # symmetric quasi-definite: strong diagonal of mixed sign
    a = np.array([[4.0, 1.0, 0.0], [1.0, -5.0, 2.0], [0.0, 2.0, 6.0]])
    L, d = ldlt_factor(a)
    assert np.allclose((L * d) @ L.T, a, atol=1e-10)
    assert (d < 0).sum() == 1


def test_ldlt_solve():
    rng = np.random.default_rng(10)
    a = random_spd(rng, 9) - 3.0 * np.eye(9)  # make it indefinite
    a = (a + a.T) / 2
    try:
        L, d = ldlt_factor(a)
    except SingularMatrixError:
        pytest.skip("random matrix hit a zero pivot")
    b = rng.standard_normal(9)
    assert np.allclose(ldlt_solve(L, d, b), np.linalg.solve(a, b), atol=1e-7)


def test_ldlt_rejects_singular():
    with pytest.raises(SingularMatrixError):
        ldlt_factor(np.zeros((2, 2)))


# ----------------------------------------------------------------------
# property-based invariants
# ----------------------------------------------------------------------
@settings(max_examples=40, deadline=None)
@given(st.integers(1, 30), st.integers(0, 2 ** 31 - 1))
def test_property_cholesky_reconstructs(n, seed):
    rng = np.random.default_rng(seed)
    a = random_spd(rng, n, cond=100.0)
    L = cholesky_factor(a)
    assert np.allclose(L @ L.T, a, rtol=1e-8, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 25), st.integers(0, 2 ** 31 - 1))
def test_property_solve_inverts_matvec(n, seed):
    rng = np.random.default_rng(seed)
    a = random_spd(rng, n)
    x = rng.standard_normal(n)
    L = cholesky_factor(a)
    assert np.allclose(cholesky_solve(L, a @ x), x, atol=1e-7)
