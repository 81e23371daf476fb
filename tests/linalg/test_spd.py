"""Tests for SPD/SNND certification (Theorem 6.1 hypotheses)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.linalg.sparse import CsrMatrix
from repro.linalg.spd import (
    definiteness_report,
    is_snnd,
    is_spd,
    min_eigenvalue,
)


SPD = np.array([[4.0, 1.0], [1.0, 3.0]])
SNND_SINGULAR = np.array([[1.0, -1.0], [-1.0, 1.0]])  # Laplacian of an edge
INDEFINITE = np.array([[1.0, 2.0], [2.0, 1.0]])
ASYMMETRIC = np.array([[1.0, 2.0], [0.0, 1.0]])


def test_is_spd_classification():
    assert is_spd(SPD)
    assert not is_spd(SNND_SINGULAR)
    assert not is_spd(INDEFINITE)
    assert not is_spd(ASYMMETRIC)


def test_is_spd_accepts_csr():
    assert is_spd(CsrMatrix.from_dense(SPD))


def test_is_snnd_classification():
    assert is_snnd(SPD)
    assert is_snnd(SNND_SINGULAR)
    assert not is_snnd(INDEFINITE)
    assert not is_snnd(ASYMMETRIC)


def test_non_square_input_is_neither_spd_nor_snnd():
    for a in (np.ones((2, 3)), CsrMatrix.from_dense(np.ones((2, 3)))):
        assert not is_spd(a)
        assert not is_snnd(a)


def test_is_snnd_empty_matrix():
    assert is_snnd(np.zeros((0, 0)))


def test_is_snnd_tolerance_absorbs_rounding():
    eps = 1e-13
    nearly = SNND_SINGULAR - eps * np.eye(2)
    assert is_snnd(nearly)
    assert not is_snnd(SNND_SINGULAR - 1e-3 * np.eye(2))


def test_min_eigenvalue():
    assert min_eigenvalue(SPD) > 0
    assert min_eigenvalue(SNND_SINGULAR) == pytest.approx(0.0, abs=1e-12)
    assert min_eigenvalue(INDEFINITE) == pytest.approx(-1.0, abs=1e-12)
    assert min_eigenvalue(np.zeros((0, 0))) == 0.0


def test_definiteness_report_theorem_hypothesis():
    rep = definiteness_report([SPD, SNND_SINGULAR])
    assert rep.n_spd == 1
    assert rep.satisfies_theorem
    assert "SATISFIED" in rep.summary()

    rep2 = definiteness_report([SNND_SINGULAR, INDEFINITE])
    assert not rep2.satisfies_theorem
    assert "VIOLATED" in rep2.summary()
    assert "INDEFINITE" in rep2.summary()


def test_definiteness_report_all_spd():
    rep = definiteness_report([SPD, 2 * np.eye(3)])
    assert rep.n_spd == 2
    assert rep.satisfies_theorem


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2 ** 31 - 1))
def test_property_gram_matrices_are_snnd(n, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, max(1, n // 2)))
    a = g @ g.T  # rank-deficient Gram matrix -> SNND
    assert is_snnd(a)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12), st.integers(0, 2 ** 31 - 1))
def test_property_dominant_laplacian_plus_identity_is_spd(n, seed):
    rng = np.random.default_rng(seed)
    w = np.abs(rng.standard_normal((n, n)))
    w = (w + w.T) / 2
    np.fill_diagonal(w, 0.0)
    lap = np.diag(w.sum(axis=1)) - w + np.eye(n)
    assert is_spd(lap)
