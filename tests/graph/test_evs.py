"""Tests for Electric Vertex Splitting — including exact reproduction of
the paper's Example 4.1 and the EVS exactness invariant."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.graph.electric import ElectricGraph
from repro.graph.evs import (
    DominancePreservingSplit,
    EqualSplit,
    ExplicitSplit,
    split_graph,
    twin_pairs,
)
from repro.graph.partition import Partition
from repro.graph.partitioners import (
    greedy_grow_partition,
    grid_block_partition,
)
from repro.linalg.spd import is_snnd
from repro.workloads.paper import (
    EXPECTED_SUB0_MATRIX,
    EXPECTED_SUB0_RHS,
    EXPECTED_SUB1_MATRIX,
    EXPECTED_SUB1_RHS,
    paper_split,
)
from repro.workloads.poisson import grid2d_poisson, grid2d_random
from repro.workloads.random_spd import random_connected_spd_graph


# ----------------------------------------------------------------------
# the paper's Example 4.1, exactly
# ----------------------------------------------------------------------
class TestPaperExample41:
    def test_two_subdomains(self):
        res = paper_split()
        assert res.n_parts == 2

    def test_split_vertices_are_v2_v3(self):
        res = paper_split()
        assert res.split_vertices == [1, 2]
        assert res.copies[1] == [0, 1]
        assert res.copies[2] == [0, 1]

    def test_subsystem_4_1(self):
        """Subgraph 1 must be exactly the paper's equation (4.1)."""
        res = paper_split()
        sub = res.subdomains[0]
        assert sub.n_ports == 2
        assert np.array_equal(sub.global_vertices, [1, 2, 0])
        assert np.allclose(sub.matrix.to_dense(), EXPECTED_SUB0_MATRIX)
        assert np.allclose(sub.rhs, EXPECTED_SUB0_RHS)

    def test_subsystem_4_2(self):
        """Subgraph 2 must be exactly the paper's equation (4.2)."""
        res = paper_split()
        sub = res.subdomains[1]
        assert sub.n_ports == 2
        assert np.array_equal(sub.global_vertices, [1, 2, 3])
        assert np.allclose(sub.matrix.to_dense(), EXPECTED_SUB1_MATRIX)
        assert np.allclose(sub.rhs, EXPECTED_SUB1_RHS)

    def test_four_ports_two_dtlps(self):
        """Example 4.1: 4 ports (2a, 2b, 3a, 3b) → two twin links."""
        res = paper_split()
        assert sum(s.n_ports for s in res.subdomains) == 4
        assert len(res.twin_links) == 2
        verts = sorted(t.vertex for t in res.twin_links)
        assert verts == [1, 2]

    def test_reassembly_exact(self):
        paper_split().assert_exact()

    def test_both_subgraphs_spd(self):
        rep = paper_split().definiteness()
        assert rep.n_spd == 2
        assert rep.satisfies_theorem

    def test_levels_are_level_one(self):
        assert paper_split().levels() == {1: 1, 2: 1}


# ----------------------------------------------------------------------
# twin topologies
# ----------------------------------------------------------------------
class TestTwinPairs:
    @pytest.mark.parametrize("topology", ["tree", "chain", "star", "complete"])
    def test_connected_over_copies(self, topology):
        for k in range(2, 7):
            pairs = twin_pairs(k, topology)
            # connectivity via union-find
            parent = list(range(k))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for a, b in pairs:
                parent[find(a)] = find(b)
            assert len({find(i) for i in range(k)}) == 1

    def test_pair_counts(self):
        assert len(twin_pairs(4, "tree")) == 3
        assert len(twin_pairs(4, "chain")) == 3
        assert len(twin_pairs(4, "star")) == 3
        assert len(twin_pairs(4, "complete")) == 6

    def test_degenerate(self):
        assert twin_pairs(1, "tree") == []
        assert twin_pairs(0, "tree") == []

    def test_two_copies_all_topologies_agree(self):
        for topology in ("tree", "chain", "star", "complete"):
            assert twin_pairs(2, topology) == [(0, 1)]

    def test_unknown_topology(self):
        with pytest.raises(ValidationError):
            twin_pairs(3, "ring")


# ----------------------------------------------------------------------
# grid splits: level-1 lines and level-2 crossings
# ----------------------------------------------------------------------
class TestGridSplit:
    def make(self, side=9, blocks=2, strategy=None, topology="tree"):
        g = grid2d_poisson(side)
        p = grid_block_partition(side, side, blocks, blocks)
        return g, split_graph(g, p, strategy=strategy,
                              twin_topology=topology)

    def test_level_mix_on_2x2_blocks(self):
        _, res = self.make(9, 2)
        levels = res.levels()
        # one separator row + one column: crossing splits 4 ways (level 2)
        assert 2 in levels.values()
        assert 1 in levels.values()
        n_level2 = sum(1 for l in levels.values() if l == 2)
        assert n_level2 == 1  # single crossing for 2x2 blocks

    def test_4x4_blocks_has_9_crossings(self):
        g = grid2d_poisson(17)
        p = grid_block_partition(17, 17, 4, 4)
        res = split_graph(g, p)
        n_level2 = sum(1 for l in res.levels().values() if l == 2)
        assert n_level2 == 9

    def test_reassembly_exact_all_strategies(self):
        for strategy in (EqualSplit(), DominancePreservingSplit()):
            _, res = self.make(9, 2, strategy)
            res.assert_exact()

    def test_dominance_split_gives_snnd_subgraphs(self):
        _, res = self.make(9, 3, DominancePreservingSplit())
        rep = res.definiteness()
        assert rep.satisfies_theorem
        for s in res.subdomains:
            assert is_snnd(s.matrix)

    def test_equal_split_on_dominant_grid_also_snnd(self):
        # grid with ground leak is strictly dominant; equal split keeps
        # every copy dominant here because the leak is split evenly too
        _, res = self.make(9, 2, EqualSplit())
        assert res.definiteness().satisfies_theorem

    def test_gather_spread_round_trip(self):
        g, res = self.make(9, 2)
        x = np.random.default_rng(0).standard_normal(g.n)
        locals_ = res.spread(x)
        back = res.gather(locals_)
        assert np.allclose(back, x)

    def test_gather_first_mode(self):
        g, res = self.make(5, 1)
        # single part: no splits, gather is identity
        x = np.arange(float(g.n))
        assert np.allclose(res.gather(res.spread(x), mode="first"), x)

    def test_gather_counts_copies_once_and_stays_bitwise(self):
        """The copy count is a constant of the split: computed by the
        first gather, shared with ``with_sources`` variants, and the
        assembled vector is bit for bit what counting per call gave."""
        g, res = self.make(9, 3)
        rng = np.random.default_rng(1)
        locals_ = [rng.standard_normal(s.n_local) for s in res.subdomains]
        acc, cnt = np.zeros(g.n), np.zeros(g.n)
        for sub, vec in zip(res.subdomains, locals_):
            np.add.at(acc, sub.global_vertices, vec)
            np.add.at(cnt, sub.global_vertices, 1.0)
        first = res.gather(locals_)
        counts = res._copy_counts
        assert np.array_equal(first, acc / cnt)
        assert np.array_equal(res.gather(locals_), first)
        assert res._copy_counts is counts
        assert res.with_sources(np.ones(g.n))._copy_counts is counts
        # mode="first": the first copy's value, in part order
        picked = res.gather(locals_, mode="first")
        for v in res.split_vertices:
            q = min(res.copies[v])
            sub = res.subdomains[q]
            assert picked[v] == locals_[q][
                list(sub.global_vertices).index(v)]

    def test_gather_validation(self):
        g, res = self.make(9, 2)
        with pytest.raises(ValidationError):
            res.gather([np.zeros(3)] * res.n_parts)
        with pytest.raises(ValidationError):
            res.gather(res.spread(np.zeros(g.n)), mode="median")

    def test_spread_validation(self):
        _, res = self.make(9, 2)
        with pytest.raises(ValidationError):
            res.spread(np.zeros(5))

    def test_twin_links_reference_valid_ports(self):
        _, res = self.make(9, 3)
        for link in res.twin_links:
            for part, port in link.endpoints():
                sub = res.subdomains[part]
                assert 0 <= port < sub.n_ports
                assert sub.global_vertices[port] == link.vertex

    def test_twin_topologies_same_subdomains(self):
        _, res_tree = self.make(9, 2, topology="tree")
        _, res_star = self.make(9, 2, topology="star")
        for a, b in zip(res_tree.subdomains, res_star.subdomains):
            assert np.allclose(a.matrix.to_dense(), b.matrix.to_dense())
        # complete topology has more links at the level-2 crossing
        _, res_complete = self.make(9, 2, topology="complete")
        assert len(res_complete.twin_links) > len(res_tree.twin_links)


# ----------------------------------------------------------------------
# irregular splits and edge cases
# ----------------------------------------------------------------------
class TestIrregularSplit:
    def test_greedy_partition_split_exact(self):
        g = random_connected_spd_graph(50, seed=5)
        p = greedy_grow_partition(g, 3, seed=5)
        res = split_graph(g, p, strategy=DominancePreservingSplit())
        res.assert_exact()
        assert res.definiteness().satisfies_theorem

    def test_single_part_no_splits(self):
        g = grid2d_poisson(4)
        p = Partition(labels=np.zeros(16, dtype=int),
                      separator=np.zeros(16, dtype=bool), n_parts=1)
        res = split_graph(g, p)
        assert res.split_vertices == []
        assert res.twin_links == []
        assert res.subdomains[0].n_local == 16
        res.assert_exact()

    def test_separator_vertex_touching_single_part_is_inner(self):
        # mark a vertex as separator although all neighbours share its part
        g = grid2d_poisson(4)
        labels = np.zeros(16, dtype=int)
        sep = np.zeros(16, dtype=bool)
        sep[5] = True
        res = split_graph(g, Partition(labels, sep, n_parts=1))
        assert res.split_vertices == []
        assert any("single part" in n for n in res.notes)
        res.assert_exact()

    def test_empty_part_allowed(self):
        # 2 parts declared, everything in part 0
        g = grid2d_poisson(3)
        p = Partition(labels=np.zeros(9, dtype=int),
                      separator=np.zeros(9, dtype=bool), n_parts=2)
        res = split_graph(g, p)
        assert res.subdomains[1].n_local == 0
        res.assert_exact()

    def test_adjacent_separator_vertices_on_line(self):
        """A full separator line between halves: all line vertices split."""
        g = grid2d_poisson(5)
        labels = (np.arange(25) // 5 >= 3).astype(np.int64)  # rows 0-2 vs 3-4
        labels[10:15] = 0
        sep = np.zeros(25, dtype=bool)
        sep[10:15] = True  # middle row separates
        res = split_graph(g, Partition(labels, sep, n_parts=2))
        assert len(res.split_vertices) == 5
        res.assert_exact()


# ----------------------------------------------------------------------
# split strategies
# ----------------------------------------------------------------------
class TestStrategies:
    def test_explicit_fractions_must_sum_to_one(self):
        g = grid2d_poisson(5)
        labels = (np.arange(25) % 5 >= 3).astype(np.int64)
        labels[np.arange(25) % 5 == 2] = 0
        sep = np.zeros(25, dtype=bool)
        sep[np.arange(25) % 5 == 2] = True
        bad = ExplicitSplit(vertex={2: {0: 0.7, 1: 0.7}})
        with pytest.raises(ValidationError, match="sum to"):
            split_graph(g, Partition(labels, sep, n_parts=2), strategy=bad)

    def test_explicit_fractions_wrong_parts(self):
        g = grid2d_poisson(5)
        labels = (np.arange(25) % 5 >= 3).astype(np.int64)
        labels[np.arange(25) % 5 == 2] = 0
        sep = np.zeros(25, dtype=bool)
        sep[np.arange(25) % 5 == 2] = True
        bad = ExplicitSplit(vertex={2: {0: 0.5, 5: 0.5}})
        with pytest.raises(ValidationError, match="cover parts"):
            split_graph(g, Partition(labels, sep, n_parts=2), strategy=bad)

    def test_dominance_vertex_fractions_sum_to_one(self):
        s = DominancePreservingSplit()
        fr = s.vertex_fractions(0, 5.0, {0: 1.0, 1: 2.0})
        assert sum(fr.values()) == pytest.approx(1.0)
        assert fr[1] > fr[0]  # heavier load gets more weight

    def test_dominance_fallback_when_not_dominant(self):
        s = DominancePreservingSplit()
        fr = s.vertex_fractions(0, 1.0, {0: 2.0, 1: 2.0})  # slack < 0
        assert sum(fr.values()) == pytest.approx(1.0)

    def test_dominance_zero_weight(self):
        s = DominancePreservingSplit()
        fr = s.vertex_fractions(0, 0.0, {0: 1.0, 1: 1.0})
        assert fr == {0: 0.5, 1: 0.5}


# ----------------------------------------------------------------------
# property: EVS exactness on random systems
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 4))
def test_property_evs_reassembly_is_exact(seed, n_parts):
    g = random_connected_spd_graph(40, seed=seed)
    p = greedy_grow_partition(g, n_parts, seed=seed)
    res = split_graph(g, p, strategy=DominancePreservingSplit())
    res.assert_exact(atol=1e-10)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_property_grid_split_preserves_solution(seed):
    """Restricting the exact solution satisfies each local system with
    consistent currents: A_j u_j - b_j sums to zero over copies."""
    g = grid2d_random(7, seed=seed)
    p = grid_block_partition(7, 7, 2, 2)
    res = split_graph(g, p, strategy=DominancePreservingSplit())
    a, b = g.to_system()
    from repro.linalg.iterative import conjugate_gradient

    x = conjugate_gradient(a, b, tol=1e-13).x
    locals_ = res.spread(x)
    # local residuals are the inflow currents; they must cancel globally
    total = np.zeros(g.n)
    for sub, xl in zip(res.subdomains, locals_):
        r = sub.matrix.matvec(xl) - sub.rhs
        np.add.at(total, sub.global_vertices, r)
    assert np.allclose(total, 0.0, atol=1e-8)


# ----------------------------------------------------------------------
# source spreading (the plan/session RHS-swap primitive)
# ----------------------------------------------------------------------
class TestSpreadSources:
    def test_baked_sources_reproduced_bitwise(self):
        g = grid2d_random(9, seed=5)
        p = grid_block_partition(9, 9, 3, 3)
        res = split_graph(g, p, strategy=DominancePreservingSplit())
        spread = res.spread_sources(g.sources)
        for sub, rhs in zip(res.subdomains, spread):
            assert np.array_equal(rhs, sub.rhs)

    def test_new_rhs_matches_rebuilt_split_bitwise(self):
        g = grid2d_random(8, seed=1)
        p = grid_block_partition(8, 8, 2, 2)
        res = split_graph(g, p, strategy=DominancePreservingSplit())
        b2 = np.linspace(-1.0, 2.0, g.n)
        g2 = ElectricGraph(g.vertex_weights, b2, g.edge_u, g.edge_v,
                           g.edge_weights)
        res2 = split_graph(g2, p, strategy=DominancePreservingSplit())
        for rhs, sub2 in zip(res.spread_sources(b2), res2.subdomains):
            assert np.array_equal(rhs, sub2.rhs)

    def test_block_input_columns_match_vector_calls(self):
        g = grid2d_random(7, seed=2)
        p = grid_block_partition(7, 7, 2, 2)
        res = split_graph(g, p, strategy=DominancePreservingSplit())
        rng = np.random.default_rng(0)
        B = rng.standard_normal((g.n, 3))
        blocks = res.spread_sources(B)
        for k in range(3):
            cols = res.spread_sources(B[:, k])
            for blk, col in zip(blocks, cols):
                assert np.array_equal(blk[:, k], col)

    def test_shape_validation(self):
        g = grid2d_random(5, seed=0)
        p = grid_block_partition(5, 5, 2, 2)
        res = split_graph(g, p, strategy=DominancePreservingSplit())
        with pytest.raises(ValidationError):
            res.spread_sources(np.zeros(g.n + 1))


# ----------------------------------------------------------------------
# re-dressing a split with a new right-hand side (shared topology)
# ----------------------------------------------------------------------
class TestWithSources:
    @staticmethod
    def _split(n=8):
        g = grid2d_random(n, seed=1)
        p = grid_block_partition(n, n, 2, 2)
        return split_graph(g, p, strategy=DominancePreservingSplit())

    def test_topology_is_shared_not_revalidated(self, monkeypatch):
        res = self._split()
        b2 = np.linspace(-1.0, 2.0, res.graph.n)
        adjacency = res.graph.adjacency()
        sources = res.graph.sources.copy()
        # the per-solve cost this guards: __post_init__ runs np.unique
        # over every edge of a topology that cannot have changed
        monkeypatch.setattr(
            ElectricGraph, "__post_init__",
            lambda self: pytest.fail("topology re-validated"))
        res2 = res.with_sources(b2)
        g, g2 = res.graph, res2.graph
        assert g2 is not g
        assert g2.edge_u is g.edge_u and g2.edge_v is g.edge_v
        assert g2.edge_weights is g.edge_weights
        assert g2.vertex_weights is g.vertex_weights
        assert g2.adjacency() is adjacency
        assert np.array_equal(g2.sources, b2)
        assert np.array_equal(g.sources, sources)  # parent untouched
        assert res2.partition is res.partition
        assert res2.twin_links is res.twin_links
        for sub, sub2, rhs in zip(res.subdomains, res2.subdomains,
                                  res.spread_sources(b2)):
            assert sub2.matrix is sub.matrix
            assert np.array_equal(sub2.rhs, rhs)

    def test_equals_a_fully_validated_rebuild(self):
        res = self._split()
        b2 = np.linspace(-1.0, 2.0, res.graph.n)
        g = res.graph
        want = ElectricGraph(g.vertex_weights, b2, g.edge_u, g.edge_v,
                             g.edge_weights)
        got = res.with_sources(b2).graph
        for name in ("vertex_weights", "sources", "edge_u", "edge_v",
                     "edge_weights"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        a_got, b_got = got.to_system()
        a_want, b_want = want.to_system()
        assert np.array_equal(a_got.to_dense(), a_want.to_dense())
        assert np.array_equal(b_got, b_want)

    def test_equal_sources_return_self(self):
        res = self._split()
        assert res.with_sources(res.graph.sources.copy()) is res

    @pytest.mark.parametrize("bad", [
        lambda n: np.zeros(n + 1),
        lambda n: np.zeros(n - 1),
        lambda n: np.zeros((n, 2)),
        lambda n: np.full(n, np.nan),
    ], ids=["long", "short", "2-D", "non-finite"])
    def test_bad_rhs_rejected(self, bad):
        res = self._split()
        n = res.graph.n
        with pytest.raises(ValidationError):
            res.with_sources(bad(n))
        # ... also when the caller brings its own rhs_list
        with pytest.raises(ValidationError):
            res.with_sources(bad(n), [s.rhs for s in res.subdomains])

    def test_swapped_solves_match_a_plan_built_on_that_rhs(self):
        """Through ``SolverSession`` and ``DtmSimulator.swap_rhs``: the
        shared-topology split solves bitwise like a split validated
        from scratch around the new right-hand side."""
        from repro.plan import build_plan
        from repro.sim.executor import DtmSimulator

        a, b = grid2d_poisson(10).to_system()
        b2 = np.random.default_rng(4).standard_normal(b.size)
        kwargs = dict(n_subdomains=4, seed=0)
        plan = build_plan(a, b, **kwargs)
        plan2 = build_plan(a, b2, **kwargs)
        got = plan.session().solve(b2, t_max=12000.0, tol=1e-8)
        want = plan2.session().solve(t_max=12000.0, tol=1e-8)
        assert got.converged and want.converged
        assert np.array_equal(got.x, want.x)
        assert got.split.graph.edge_u is plan.split.graph.edge_u
        assert np.array_equal(got.split.graph.sources, b2)

        sim = DtmSimulator(plan=plan)
        sim.swap_rhs(b2)
        assert sim.split.graph.edge_u is plan.split.graph.edge_u
        res = sim.run(12000.0, tol=1e-8)
        ref = DtmSimulator(plan=plan2).run(12000.0, tol=1e-8)
        assert res.converged and ref.converged
        assert np.array_equal(res.x, ref.x)
