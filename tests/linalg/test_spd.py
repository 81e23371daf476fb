"""Tests for SPD/SNND certification (Theorem 6.1 hypotheses)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.laplace import port_operator
from repro.errors import NotSpdError, ReproError
from repro.graph.electric import ElectricGraph
from repro.graph.partition import Partition, Subdomain
from repro.linalg.sparse import CsrMatrix
from repro.linalg.spd import (
    cho_solver,
    definiteness_report,
    is_snnd,
    is_spd,
    min_eigenvalue,
)
from repro.solvers.base import build_block_structure
from repro.solvers.schur import solve_schur


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


def negative_path():
    """A 4-vertex path with vertex weight −3: every diagonal block of
    a split in two is negative definite."""
    return ElectricGraph(np.full(4, -3.0), np.ones(4), np.arange(3),
                         np.arange(1, 4), -np.ones(3))


def test_cho_solver_solves_and_names_a_block_that_is_not_spd():
    solve = cho_solver(SPD, "a block")
    assert np.allclose(SPD @ solve(np.ones(2)), np.ones(2))
    with pytest.raises(NotSpdError, match="the odd block"):
        cho_solver(INDEFINITE, "the odd block")


@pytest.mark.parametrize("site", ["block_jacobi", "schur", "laplace"])
def test_dense_blocks_that_are_not_spd_raise_not_spd(site):
    """The dense-block sites (the DDM baselines, the Laplace check)
    report a block that is not SPD as the package's ``NotSpdError`` —
    a ``ReproError`` — naming the block, not numpy's ``LinAlgError``."""
    graph = negative_path()
    with pytest.raises(ReproError) as err:
        if site == "block_jacobi":
            build_block_structure(graph, Partition([0, 0, 1, 1],
                                                   [False] * 4))
        elif site == "schur":
            solve_schur(graph, Partition(
                [0, 0, 1, 1], [False, True, False, False]))
        else:
            a, b = graph.to_system()
            port_operator(Subdomain(0, a, b, np.arange(4), n_ports=1))
    assert isinstance(err.value, NotSpdError)
    assert "block" in str(err.value)
