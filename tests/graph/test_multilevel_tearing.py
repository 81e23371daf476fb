"""Focused tests for multilevel wire tearing (paper §4, Fig 6).

The paper allows split vertices to be "split again and again"; on 2-D
grids the level-two case appears at separator-line crossings.  These
tests pin down the structural properties of multi-way splits beyond
what the general EVS tests cover: copy counts, DTLP trees, current
conservation across >2 copies, and solvability of port-only subdomains.
"""

import numpy as np
import pytest

from repro.core.impedance import GeometricMeanImpedance
from repro.core.vtm import VtmSolver
from repro.graph.electric import ElectricGraph
from repro.graph.evs import DominancePreservingSplit, split_graph
from repro.graph.partition import Partition
from repro.graph.partitioners import grid_block_partition
from repro.linalg.iterative import direct_reference_solution
from repro.plan import build_plan
from repro.workloads.poisson import grid2d_random


def vtm_on(split, impedance) -> VtmSolver:
    return VtmSolver(build_plan(split=split, impedance=impedance,
                                mode="vtm"))


def cross_split(side=9, blocks=3, seed=0, topology="tree"):
    g = grid2d_random(side, seed=seed)
    p = grid_block_partition(side, side, blocks, blocks)
    return g, split_graph(g, p, strategy=DominancePreservingSplit(),
                          twin_topology=topology)


def test_cross_points_have_four_copies():
    _, res = cross_split(9, 3)
    four_way = [v for v, parts in res.copies.items() if len(parts) == 4]
    # 3x3 blocks -> 2x2 = 4 crossings
    assert len(four_way) == 4
    for v in four_way:
        # the four copies are the four blocks around the crossing
        assert len(set(res.copies[v])) == 4


def test_four_copy_vertex_has_three_tree_links():
    _, res = cross_split(9, 3, topology="tree")
    four_way = [v for v, parts in res.copies.items() if len(parts) == 4]
    for v in four_way:
        links = [l for l in res.twin_links if l.vertex == v]
        assert len(links) == 3  # spanning tree over 4 copies


def test_four_copy_vertex_complete_topology_has_six_links():
    _, res = cross_split(9, 3, topology="complete")
    four_way = [v for v, parts in res.copies.items() if len(parts) == 4]
    for v in four_way:
        links = [l for l in res.twin_links if l.vertex == v]
        assert len(links) == 6


def test_weight_conservation_across_four_copies():
    g, res = cross_split(9, 3)
    for v, parts in res.copies.items():
        if len(parts) < 2:
            continue
        total_w = 0.0
        total_b = 0.0
        for q in parts:
            sub = res.subdomains[q]
            row = sub.local_index_of(v)
            total_w += sub.matrix.to_scipy()[row, row]
            total_b += sub.rhs[row]
        assert total_w == pytest.approx(float(g.vertex_weights[v]))
        assert total_b == pytest.approx(float(g.sources[v]))


@pytest.mark.parametrize("topology", ["tree", "chain", "star", "complete"])
def test_multiway_kcl_at_convergence(topology):
    """Currents over all copies of a 4-way split sum to zero."""
    g, res = cross_split(9, 3, topology=topology)
    a, b = g.to_system()
    ref = direct_reference_solution(a, b)
    solver = vtm_on(res, GeometricMeanImpedance(2.0))
    out = solver.run(tol=1e-11, max_iterations=6000, reference=ref)
    assert out.converged
    for v, parts in res.copies.items():
        if len(parts) < 3:
            continue
        currents = []
        pots = []
        for q in parts:
            row = res.subdomains[q].local_index_of(v)
            kernel = solver.kernels[q]
            pots.append(kernel.port_potentials()[row])
            currents.append(kernel.port_currents()[row])
        assert np.ptp(pots) < 1e-8
        assert abs(sum(currents)) < 1e-8


def test_level_three_star_graph_split():
    """An 8-way split (level three): hub vertex shared by 8 parts."""
    n_leaves = 8
    edges = [(0, i + 1, -1.0) for i in range(n_leaves)]
    weights = np.full(n_leaves + 1, 2.0)
    weights[0] = n_leaves + 1.0
    sources = np.ones(n_leaves + 1)
    g = ElectricGraph.from_edges(n_leaves + 1, edges, weights, sources)
    labels = np.arange(n_leaves + 1) % n_leaves
    labels[0] = 0
    labels[1:] = np.arange(n_leaves)
    sep = np.zeros(n_leaves + 1, dtype=bool)
    sep[0] = True
    res = split_graph(g, Partition(labels, sep, n_parts=n_leaves),
                      strategy=DominancePreservingSplit())
    assert res.copies[0] == list(range(n_leaves))
    assert res.levels()[0] == 3  # ceil(log2(8))
    res.assert_exact()
    a, b = g.to_system()
    ref = direct_reference_solution(a, b)
    out = vtm_on(res, 1.0).run(tol=1e-10, max_iterations=4000,
                               reference=ref)
    assert out.converged
    assert np.allclose(out.x, ref, atol=1e-8)


def test_port_only_subdomain_is_solvable():
    """A part whose only content is a split-vertex copy still works."""
    # path graph a-b-c with b as separator; part 1 interior = {c}, and
    # we then also mark c as separator -> part 1 becomes port-only
    g = ElectricGraph.from_edges(
        3, [(0, 1, -1.0), (1, 2, -1.0)],
        [2.0, 3.0, 2.0], [1.0, 0.0, 1.0])
    part = Partition(labels=np.array([0, 0, 1]),
                     separator=np.array([False, True, True]), n_parts=2)
    res = split_graph(g, part, strategy=DominancePreservingSplit())
    res.assert_exact()
    a, b = g.to_system()
    ref = direct_reference_solution(a, b)
    out = vtm_on(res, 1.0).run(tol=1e-10, max_iterations=2000,
                               reference=ref)
    assert out.converged
    assert np.allclose(out.x, ref, atol=1e-8)
