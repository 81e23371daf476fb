"""Tests for workload generators (grids, random SPD, circuits, paper)."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.linalg.spd import is_spd
from repro.workloads.circuits import (
    clustered_circuit,
    resistor_grid,
    resistor_ladder,
)
from repro.workloads.paper import paper_split, paper_system_3_2
from repro.workloads.poisson import (
    grid2d_anisotropic,
    grid2d_poisson,
    grid2d_random,
    grid3d_poisson,
    paper_grid_side,
)
from repro.workloads.random_spd import (
    random_connected_spd_graph,
    random_dense_spd,
    random_spd_graph,
)


# ----------------------------------------------------------------------
# grid generators
# ----------------------------------------------------------------------
def test_grid2d_poisson_structure():
    g = grid2d_poisson(4, 3, ground=0.1)
    assert g.n == 12
    assert g.n_edges == 4 * 2 + 3 * 3  # horizontal + vertical
    assert is_spd(g.to_matrix())
    # interior vertex of a 5x5 grid: degree-4 stencil, diag = 4 + ground
    a5 = grid2d_poisson(5, ground=0.1).to_matrix().to_dense()
    assert a5[12, 12] == pytest.approx(4 + 0.1)
    # corner vertex: degree 2
    assert a5[0, 0] == pytest.approx(2 + 0.1)


def test_grid2d_poisson_pure_laplacian_is_singular():
    from repro.linalg.spd import is_snnd, min_eigenvalue

    g = grid2d_poisson(3, ground=0.0)
    m = g.to_matrix()
    # the pure Laplacian annihilates constants: SNND with a zero eigenvalue
    assert np.allclose(m.matvec(np.ones(9)), 0.0)
    assert is_snnd(m)
    assert abs(min_eigenvalue(m)) < 1e-10


def test_grid2d_poisson_validation():
    with pytest.raises(ValidationError):
        grid2d_poisson(0)
    with pytest.raises(ValidationError):
        grid2d_poisson(3, ground=-1.0)


def test_grid2d_random_spd_and_seeded():
    g1 = grid2d_random(6, seed=3)
    g2 = grid2d_random(6, seed=3)
    assert np.array_equal(g1.edge_weights, g2.edge_weights)
    assert np.array_equal(g1.sources, g2.sources)
    assert is_spd(g1.to_matrix())
    a = g1.to_matrix().to_dense()
    diag = np.diag(a)
    assert np.all(diag > np.abs(a).sum(axis=1) - diag)  # strictly dominant


def test_grid2d_random_range_validation():
    with pytest.raises(ValidationError):
        grid2d_random(4, conductance_range=(0.0, 1.0))
    with pytest.raises(ValidationError):
        grid2d_random(4, ground_range=(-0.1, 0.2))


def test_grid2d_anisotropic():
    g = grid2d_anisotropic(5, epsilon=0.01)
    assert is_spd(g.to_matrix())
    weights = np.abs(g.edge_weights)
    assert weights.min() == pytest.approx(0.01)
    assert weights.max() == pytest.approx(1.0)
    with pytest.raises(ValidationError):
        grid2d_anisotropic(4, epsilon=0.0)


def test_grid3d_poisson():
    g = grid3d_poisson(3)
    assert g.n == 27
    assert is_spd(g.to_matrix())
    a = g.to_matrix().to_dense()
    # center vertex has 6 neighbours
    assert a[13, 13] == pytest.approx(6 + 0.05)
    with pytest.raises(ValidationError):
        grid3d_poisson(0)


def test_paper_grid_side():
    assert paper_grid_side(289) == 17
    assert paper_grid_side(1089) == 33
    assert paper_grid_side(4225) == 65
    with pytest.raises(ValidationError):
        paper_grid_side(300)


# ----------------------------------------------------------------------
# random generators
# ----------------------------------------------------------------------
def test_random_dense_spd():
    a = random_dense_spd(10, cond=50.0, seed=1)
    assert is_spd(a)
    eigs = np.linalg.eigvalsh(a)
    assert eigs[-1] / eigs[0] == pytest.approx(50.0, rel=1e-6)
    with pytest.raises(ValidationError):
        random_dense_spd(0)
    with pytest.raises(ValidationError):
        random_dense_spd(3, cond=0.5)


def test_random_spd_graph():
    g = random_spd_graph(30, density=0.2, seed=2)
    assert is_spd(g.to_matrix())
    with pytest.raises(ValidationError):
        random_spd_graph(10, density=1.5)


def test_random_connected_spd_graph():
    g = random_connected_spd_graph(40, seed=5)
    assert g.is_connected()
    assert is_spd(g.to_matrix())
    assert g.n_edges >= 39  # at least the spanning tree


# ----------------------------------------------------------------------
# circuits
# ----------------------------------------------------------------------
def test_resistor_grid():
    g = resistor_grid(5, 6, seed=1)
    assert g.n == 30
    assert is_spd(g.to_matrix())
    assert np.count_nonzero(g.sources) >= 1
    with pytest.raises(ValidationError):
        resistor_grid(3, 3, ground_conductance=0.0)
    with pytest.raises(ValidationError):
        resistor_grid(3, 3, n_injections=100)


def test_resistor_ladder_voltage_decay():
    g = resistor_ladder(10, series_r=1.0, shunt_r=2.0)
    a, b = g.to_system()
    from repro.linalg.iterative import direct_reference_solution

    v = direct_reference_solution(a, b)
    # driven at node 0: potentials decay monotonically down the ladder
    assert np.all(np.diff(v) < 0)
    assert v[0] > 0
    with pytest.raises(ValidationError):
        resistor_ladder(0)


def test_clustered_circuit():
    g = clustered_circuit(3, 5, seed=4)
    assert g.n == 15
    assert is_spd(g.to_matrix())
    assert g.is_connected()
    with pytest.raises(ValidationError):
        clustered_circuit(1, 1)


# ----------------------------------------------------------------------
# paper fixtures
# ----------------------------------------------------------------------
def test_paper_system_is_spd_and_exact_solution():
    system = paper_system_3_2()
    assert is_spd(system.matrix)
    x = system.exact_solution()
    assert np.allclose(system.matrix.to_dense() @ x, system.rhs)


def test_paper_split_cached_values():
    split = paper_split()
    assert split.n_parts == 2
    assert [s.n_local for s in split.subdomains] == [3, 3]
