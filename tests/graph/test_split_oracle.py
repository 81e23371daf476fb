"""The vectorised splitter equals the loop-per-edge oracle bit for bit.

:func:`repro.graph.evs.split_graph` classifies edges with numpy masks
and assembles subdomains by index arithmetic; ``tests/split_oracle.py``
keeps the splitter it replaced.  Every field a plan is built from must
come out the same: the subdomain matrices' CSR arrays, ``rhs``,
``global_vertices`` and ``n_ports``, the copies (in order), the twin
links, the notes (in order) and the source fractions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.electric import ElectricGraph
from repro.graph.evs import (
    DominancePreservingSplit,
    EqualSplit,
    ExplicitSplit,
    split_graph,
)
from repro.graph.partition import Partition
from repro.graph.partitioners import (
    greedy_grow_partition,
    grid_block_partition,
)
from repro.workloads.poisson import grid2d_random
from repro.workloads.random_spd import random_connected_spd_graph
from split_oracle import split_graph as oracle_split

TOPOLOGIES = ("tree", "chain", "star", "complete")


def assert_same_split(got, want) -> None:
    assert len(got.subdomains) == len(want.subdomains)
    for a, b in zip(got.subdomains, want.subdomains):
        assert a.part == b.part
        for name in ("data", "indices", "indptr"):
            x, y = getattr(a.matrix, name), getattr(b.matrix, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
        assert a.matrix.shape == b.matrix.shape
        assert a.rhs.dtype == b.rhs.dtype
        assert a.rhs.tobytes() == b.rhs.tobytes()
        assert a.global_vertices.dtype == b.global_vertices.dtype
        assert a.global_vertices.tobytes() == b.global_vertices.tobytes()
        assert a.n_ports == b.n_ports
    assert list(got.copies.items()) == list(want.copies.items())
    assert got.twin_links == want.twin_links
    assert got.notes == want.notes
    assert got.source_fractions == want.source_fractions
    # the port weights are the recorded source fractions, port by port
    for sub, w in zip(got.subdomains, got.port_weights):
        fr = [want.source_fractions[int(v)][sub.part]
              for v in sub.port_vertices]
        assert w.tobytes() == np.asarray(fr, dtype=np.float64).tobytes()


def random_graph(n: int, density: float, seed: int) -> ElectricGraph:
    """Irregular SPD graph: random edges, possibly disconnected (so some
    vertices may have no edge at all)."""
    rng = np.random.default_rng(seed)
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < density
    eu, ev = iu[keep], ju[keep]
    w = -rng.uniform(0.5, 2.0, size=eu.size)
    vertex = rng.uniform(0.05, 0.3, size=n)
    np.add.at(vertex, eu, -w)
    np.add.at(vertex, ev, -w)
    return ElectricGraph(vertex, rng.standard_normal(n), eu, ev, w)


def random_partition(graph: ElectricGraph, n_parts: int, seed: int
                     ) -> Partition:
    """Random labels; one random endpoint of every cut edge plus a few
    random vertices go into the separator."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_parts, size=graph.n)
    sep = rng.random(graph.n) < 0.1
    eu, ev = graph.edge_u, graph.edge_v
    for u, v in zip(eu.tolist(), ev.tolist()):
        if labels[u] != labels[v] and not (sep[u] or sep[v]):
            sep[u if rng.random() < 0.5 else v] = True
    return Partition(labels, sep, n_parts=n_parts)


@st.composite
def systems(draw):
    kind = draw(st.sampled_from(["grid", "greedy", "random"]))
    seed = draw(st.integers(0, 2 ** 31 - 1))
    if kind == "grid":  # uneven blocks whenever px/py do not divide
        nx, ny = draw(st.integers(3, 16)), draw(st.integers(3, 16))
        px = draw(st.integers(1, max(1, nx // 3)))
        py = draw(st.integers(1, max(1, ny // 3)))
        return (grid2d_random(nx, ny, seed=seed),
                grid_block_partition(nx, ny, px, py))
    n = draw(st.integers(4, 60))
    n_parts = draw(st.integers(2, 5))
    if kind == "greedy":
        g = random_connected_spd_graph(n, seed=seed)
        return g, greedy_grow_partition(g, min(n_parts, n), seed=seed)
    g = random_graph(n, draw(st.sampled_from([0.02, 0.08, 0.2])), seed)
    return g, random_partition(g, n_parts, seed)


def explicit_strategy(graph, partition, seed) -> ExplicitSplit:
    """Table-driven fractions (zeros included) for some split vertices
    and split-split edges; the rest falls back to dominance shares."""
    copies = oracle_split(graph, partition).copies
    rng = np.random.default_rng(seed)

    def fractions(parts):
        raw = rng.integers(0, 4, size=len(parts)).astype(np.float64)
        raw[rng.integers(len(parts))] += 1.0
        return dict(zip(parts, raw / raw.sum()))

    split = [v for v, parts in copies.items() if len(parts) >= 2]
    vertex = {v: fractions(copies[v]) for v in split if rng.random() < 0.5}
    source = {v: fractions(copies[v]) for v in split if rng.random() < 0.3}
    edge = {}
    for u, v in zip(graph.edge_u.tolist(), graph.edge_v.tolist()):
        if u in copies and v in copies and rng.random() < 0.5:
            common = sorted(set(copies[u]) & set(copies[v]))
            if len(common) >= 2:
                edge[(u, v)] = fractions(common)
    return ExplicitSplit(vertex=vertex, source=source, edge=edge,
                         default=DominancePreservingSplit())


@settings(max_examples=300, deadline=None)
@given(systems(),
       st.sampled_from([EqualSplit(), DominancePreservingSplit(), None]),
       st.sampled_from(TOPOLOGIES), st.integers(0, 2 ** 31 - 1))
def test_property_split_equals_the_oracle(system, strategy, topology, seed):
    graph, partition = system
    if strategy is None:
        strategy = explicit_strategy(graph, partition, seed)
    assert_same_split(split_graph(graph, partition, strategy, topology),
                      oracle_split(graph, partition, strategy, topology))


def _path_with_disjoint_separator_pair():
    # 0 - 1 - 2 - 3: separator vertices 1 (part 0) and 2 (part 1) only
    # see their own side, so edge (1, 2) extends 2's copies into part 0
    g = ElectricGraph.from_edges(
        4, [(0, 1, -1.0), (1, 2, -1.5), (2, 3, -0.5)],
        vertex_weights=[1.5, 3.0, 2.5, 1.0], sources=[1.0, -2.0, 0.5, 3.0])
    return g, Partition([0, 0, 1, 1], [False, True, True, False])


def _isolated_separator_vertex():
    g = random_graph(12, 0.3, 3)
    keep = (g.edge_u != 5) & (g.edge_v != 5)
    g = ElectricGraph(g.vertex_weights, g.sources, g.edge_u[keep],
                      g.edge_v[keep], g.edge_weights[keep])
    p = random_partition(g, 3, 3)
    sep = p.separator.copy()
    sep[5] = True
    return g, Partition(p.labels, sep, n_parts=3)


def _single_part_separator_vertex():
    g = grid2d_random(6, seed=2)
    p = grid_block_partition(6, 6, 2, 2)
    sep = p.separator.copy()
    sep[0] = True  # a corner: every neighbour is in part 0
    return g, Partition(p.labels, sep, n_parts=4)


@pytest.mark.parametrize("build, note", [
    (_path_with_disjoint_separator_pair, "extended copies of boundary edge"),
    (_isolated_separator_vertex, "isolated separator vertex"),
    (_single_part_separator_vertex, "touches a single part"),
], ids=["extended", "isolated", "single-part"])
@pytest.mark.parametrize("topology", TOPOLOGIES)
def test_every_notes_path_equals_the_oracle(build, note, topology):
    graph, partition = build()
    got = split_graph(graph, partition, DominancePreservingSplit(), topology)
    assert any(note in line for line in got.notes)
    assert_same_split(got, oracle_split(graph, partition,
                                        DominancePreservingSplit(), topology))
    got.assert_exact(atol=1e-12)
