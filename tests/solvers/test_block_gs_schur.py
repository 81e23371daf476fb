"""Tests for block Gauss-Seidel and the Schur-complement baseline."""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.graph.partition import Partition
from repro.graph.partitioners import grid_block_partition
from repro.linalg.iterative import direct_reference_solution
from repro.solvers.block_gs import solve_block_gauss_seidel
from repro.solvers.block_jacobi import solve_block_jacobi
from repro.solvers.schur import solve_schur
from repro.workloads.paper import paper_partition, paper_system_3_2
from repro.workloads.poisson import grid2d_poisson, grid2d_random


@pytest.fixture(scope="module")
def setup():
    g = grid2d_random(9, seed=6)
    p = grid_block_partition(9, 9, 3, 3)
    a, b = g.to_system()
    return g, p, direct_reference_solution(a, b)


# ----------------------------------------------------------------------
# block Gauss-Seidel
# ----------------------------------------------------------------------
def test_bgs_converges(setup):
    g, p, ref = setup
    res = solve_block_gauss_seidel(g, p, tol=1e-9, reference=ref)
    assert res.converged
    assert np.allclose(res.x, ref, atol=1e-7)


def test_bgs_faster_than_bj(setup):
    """Multiplicative Schwarz beats additive on sweeps (textbook)."""
    g, p, ref = setup
    bgs = solve_block_gauss_seidel(g, p, tol=1e-8, reference=ref)
    bj = solve_block_jacobi(g, p, tol=1e-8, reference=ref)
    assert bgs.converged and bj.converged
    assert bgs.iterations <= bj.iterations


def test_bgs_symmetric_sweeps(setup):
    g, p, ref = setup
    res = solve_block_gauss_seidel(g, p, tol=1e-9, reference=ref,
                                   reverse=True)
    assert res.converged


# ----------------------------------------------------------------------
# Schur complement
# ----------------------------------------------------------------------
def test_schur_exact_on_paper_example():
    system = paper_system_3_2()
    res = solve_schur(system.graph, paper_partition())
    assert np.allclose(res.x, system.exact_solution(), atol=1e-12)
    assert res.interface_size == 2
    assert res.schur_is_spd()


def test_schur_exact_on_grid():
    g = grid2d_random(9, seed=8)
    p = grid_block_partition(9, 9, 2, 2)
    a, b = g.to_system()
    ref = direct_reference_solution(a, b)
    res = solve_schur(g, p)
    assert np.allclose(res.x, ref, atol=1e-9)
    assert res.interface_size == int(p.separator.sum())
    assert sum(res.interior_sizes) + res.interface_size == g.n


def test_schur_single_part_no_interface():
    g = grid2d_poisson(4)
    p = Partition(labels=np.zeros(16, dtype=int),
                  separator=np.zeros(16, dtype=bool), n_parts=1)
    res = solve_schur(g, p)
    a, b = g.to_system()
    assert np.allclose(a.to_scipy() @ res.x, b, atol=1e-9)
    assert res.interface_size == 0


def test_schur_requires_separator_for_multiple_parts():
    g = grid2d_poisson(4)
    labels = (np.arange(16) // 8).astype(np.int64)
    p = Partition(labels=labels, separator=np.zeros(16, dtype=bool),
                  n_parts=2)
    with pytest.raises(PartitionError):
        solve_schur(g, p)


def test_schur_matrix_is_dense_spd(setup):
    g, p, _ = setup
    res = solve_schur(g, p)
    assert res.schur_matrix.shape == (res.interface_size,
                                      res.interface_size)
    assert res.schur_is_spd()
