"""Tests for SolverPlan construction, keying, and the plan cache."""

import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro

from repro.core.impedance import FixedImpedance, GeometricMeanImpedance
from repro.errors import ConfigurationError
from repro.linalg.iterative import direct_reference_solution
from repro.plan import PlanCache, build_plan, get_plan, plan_key
from repro.plan.plan import graph_fingerprint, make_split
from repro.workloads.poisson import grid2d_random
from repro.workloads.random_spd import random_connected_spd_graph

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.fixture(scope="module")
def graph():
    return grid2d_random(8, seed=1)


class TestPlanBuild:
    def test_dtm_plan_carries_the_pipeline(self, graph):
        plan = build_plan(graph, n_subdomains=4, seed=1)
        assert plan.mode == "dtm"
        assert plan.n_parts == 4
        assert plan.topology is not None
        assert len(plan.base_locals) == 4
        assert plan.fleet_template.n_parts == 4
        assert all(loc.factor is not None for loc in plan.base_locals
                   if loc.n_local)
        assert plan.build_seconds > 0

    def test_vtm_plan_has_unit_delays_no_topology(self, graph):
        plan = build_plan(graph, mode="vtm", n_subdomains=4, seed=1)
        assert plan.topology is None
        for d in plan.network.dtlps:
            assert d.delay_ab == 1.0 and d.delay_ba == 1.0

    @pytest.mark.parametrize("side", [8, 24, 25, 30],
                             ids=["n64", "n576", "n625", "n900"])
    def test_reference_matches_direct_solution_bitwise(self, side):
        # one cached SuperLU factor at every size: on both sides of the
        # 600 unknowns where a CG reference used to take over
        graph = grid2d_random(side, seed=1)
        plan = build_plan(graph, n_subdomains=4, seed=1)
        a_mat, b = graph.to_system()
        assert np.array_equal(plan.reference(b),
                              direct_reference_solution(a_mat, b))
        b2 = np.linspace(-1, 1, graph.n)
        assert np.array_equal(plan.reference(b2),
                              direct_reference_solution(a_mat, b2))

    def test_reference_block_columns_match(self, graph):
        plan = build_plan(graph, n_subdomains=4, seed=1)
        rng = np.random.default_rng(0)
        B = rng.standard_normal((graph.n, 3))
        block = plan.reference(B)
        for k in range(3):
            assert np.array_equal(block[:, k], plan.reference(B[:, k]))

    def test_forks_do_not_touch_base_state(self, graph):
        plan = build_plan(graph, n_subdomains=4, seed=1)
        base_x0 = [loc.x0.copy() for loc in plan.base_locals]
        fleet = plan.fork_fleet()
        b2 = np.ones(graph.n)
        fleet.swap_rhs(plan.spread_sources(b2))
        for loc, x0 in zip(plan.base_locals, base_x0):
            assert np.array_equal(loc.x0, x0)
        assert np.all(plan.fleet_template.waves == 0.0)

    def test_bad_mode_and_missing_inputs(self, graph):
        with pytest.raises(ConfigurationError):
            build_plan(graph, mode="nope")
        with pytest.raises(ConfigurationError):
            build_plan()
        with pytest.raises(ConfigurationError):
            build_plan(np.eye(4))  # matrix input requires b


class TestPlanKey:
    def test_fingerprint_ignores_sources(self, graph):
        from repro.graph.electric import ElectricGraph

        g2 = ElectricGraph(graph.vertex_weights, np.ones(graph.n),
                           graph.edge_u, graph.edge_v, graph.edge_weights)
        assert graph_fingerprint(graph) == graph_fingerprint(g2)

    def test_key_sensitivity(self, graph):
        def key(**kw):
            base = dict(mode="dtm", n_subdomains=4, seed=1,
                        grid_shape=None, parts_shape=None, topology=None,
                        impedance=1.0, placement=None,
                        allow_indefinite=False)
            base.update(kw)
            return plan_key(graph, **base)

        assert key() == key()
        assert key() != key(n_subdomains=8)
        assert key() != key(seed=2)
        assert key() != key(mode="vtm")
        assert key() != key(impedance=2.0)
        assert key() != key(impedance=GeometricMeanImpedance(2.0))
        # value-bearing strategy reprs: equal-valued objects share a key
        assert key(impedance=GeometricMeanImpedance(2.0)) == \
            key(impedance=GeometricMeanImpedance(2.0))
        assert key(impedance=FixedImpedance(0.5)) == \
            key(impedance=FixedImpedance(0.5))


    def test_section7_plan_hash_is_the_same_in_every_process(self):
        """The §7 plan is built from a prebuilt split: its key must
        hash the split's content, not the object, or a restarted
        process never finds its artifact in a ``plan_dir``."""
        code = textwrap.dedent(
            """
            from repro.experiments.common import (
                default_impedance, paper_split_for)
            from repro.plan import get_plan
            from repro.runtime.server import plan_hash
            from repro.sim.network import paper_fig11_topology

            split = paper_split_for(4225, 16, 2008)
            plan = get_plan(split=split,
                            topology=paper_fig11_topology(2008),
                            impedance=default_impedance())
            print(plan_hash(plan))
            """
        )
        env = dict(os.environ, PYTHONPATH=SRC + os.pathsep
                   + os.environ.get("PYTHONPATH", ""))
        hashes = {
            subprocess.run([sys.executable, "-c", code], env=env,
                           capture_output=True, text=True, check=True,
                           timeout=300).stdout.strip()
            for _ in range(2)
        }
        assert len(hashes) == 1 and "" not in hashes


class TestPlanCache:
    def test_get_plan_hits_and_misses(self, graph):
        cache = PlanCache(maxsize=4)
        p1 = get_plan(graph, n_subdomains=4, seed=1, cache=cache)
        assert not p1.from_cache
        p2 = get_plan(graph, n_subdomains=4, seed=1, cache=cache)
        assert p2 is p1 and p2.from_cache
        p3 = get_plan(graph, n_subdomains=2, seed=1, cache=cache)
        assert p3 is not p1
        snap = cache.metrics_snapshot()
        assert snap.total("repro_plan_cache_hits_total") == 1
        assert snap.total("repro_plan_cache_misses_total") == 2
        assert snap.value("repro_plan_cache_entries") == 2

    def test_unknown_keyword_is_named_on_a_miss_and_a_hit(self, graph):
        # validated before keying: a misspelt or retired knob must not
        # be dropped silently because an equal plan is already cached
        cache = PlanCache(maxsize=4)
        for bad in ({"numerix": "sparse"}, {"numerics": "sparse"}):
            (name,) = bad
            with pytest.raises(ConfigurationError, match=name):
                get_plan(graph, n_subdomains=4, seed=1, cache=cache, **bad)
            assert len(cache) == 0  # the miss built nothing
        get_plan(graph, n_subdomains=4, seed=1, cache=cache)
        for bad in ({"numerix": "sparse"}, {"numerics": "sparse"},
                    {"key": ("x",)}):
            (name,) = bad
            with pytest.raises(ConfigurationError, match=name):
                get_plan(graph, n_subdomains=4, seed=1, cache=cache, **bad)
        assert len(cache) == 1

    @pytest.mark.parametrize("knob, value", [
        ("numerics", "sparse"), ("build_workers", 2)])
    @pytest.mark.parametrize("front_end", [
        "solve_dtm", "solve_vtm_system", "build_plan", "get_plan"])
    def test_retired_knob_is_named_by_every_front_end(
            self, graph, front_end, knob, value):
        # a client that still sends a retired knob is refused by name,
        # never served a plan that silently ignored it
        from repro import api
        from repro.plan import plan as plan_mod

        fn = getattr(api, front_end, None) or getattr(plan_mod, front_end)
        with pytest.raises((TypeError, ConfigurationError), match=knob):
            fn(graph, n_subdomains=4, seed=1, **{knob: value})

    def test_lru_eviction(self, graph):
        cache = PlanCache(maxsize=1)
        p1 = get_plan(graph, n_subdomains=4, seed=1, cache=cache)
        get_plan(graph, n_subdomains=2, seed=1, cache=cache)
        p3 = get_plan(graph, n_subdomains=4, seed=1, cache=cache)
        assert p3 is not p1  # evicted by the n_subdomains=2 entry
        assert len(cache) == 1

    def test_use_cache_false_always_builds(self, graph):
        cache = PlanCache()
        p1 = get_plan(graph, n_subdomains=4, seed=1, cache=cache)
        p2 = get_plan(graph, n_subdomains=4, seed=1, cache=cache,
                      use_cache=False)
        assert p2 is not p1 and not p2.from_cache

    def test_prebuilt_split_keys_by_content(self):
        g = random_connected_spd_graph(30, seed=0)
        split = make_split(g, g.sources, 3, seed=0)
        cache = PlanCache()
        p1 = get_plan(split=split, cache=cache)
        p2 = get_plan(split=split, cache=cache)
        assert p2 is p1 and p2.from_cache
        # an equal split built afresh is the same plan ...
        again = make_split(g, g.sources, 3, seed=0)
        assert get_plan(split=again, cache=cache) is p1
        # ... with its own sources as the default right-hand side
        b2 = np.arange(g.n, dtype=np.float64)
        p3 = get_plan(split=make_split(g, b2, 3, seed=0), cache=cache)
        assert p3.from_cache and p3.network is p1.network
        np.testing.assert_array_equal(p3.base_b, b2)
        # another cut is another plan
        p4 = get_plan(split=make_split(g, g.sources, 2, seed=0),
                      cache=cache)
        assert not p4.from_cache and p4.key != p1.key


class TestReviewFixes:
    def test_equal_valued_topologies_share_a_plan(self, graph):
        from repro.plan import PlanCache
        from repro.sim.network import complete_topology

        cache = PlanCache()
        t1 = complete_topology(4, seed=5)
        t2 = complete_topology(4, seed=5)
        assert t1 is not t2
        p1 = get_plan(graph, n_subdomains=4, seed=1, topology=t1,
                      cache=cache)
        p2 = get_plan(graph, n_subdomains=4, seed=1, topology=t2,
                      cache=cache)
        assert p2 is p1 and p2.from_cache
        # different delays -> different plan
        t3 = complete_topology(4, seed=6)
        p3 = get_plan(graph, n_subdomains=4, seed=1, topology=t3,
                      cache=cache)
        assert p3 is not p1

    def test_reference_cache_is_thread_safe(self, graph):
        import threading

        plan = build_plan(graph, n_subdomains=4, seed=1)
        rng = np.random.default_rng(3)
        vecs = [rng.standard_normal(graph.n) for _ in range(160)]
        errors = []

        def worker(chunk):
            try:
                for v in chunk:
                    plan.reference(v)
                    plan.record_solve()
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(vecs[i::4],))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert plan.n_solves_served == len(vecs)

    def test_jittered_topologies_key_by_identity(self, graph):
        from repro.plan import PlanCache
        from repro.plan.plan import _topology_token
        from repro.sim.network import complete_topology, JitteredDelay

        t1 = complete_topology(4, seed=5)
        t2 = complete_topology(4, seed=5)
        # make them stochastic: content keying must switch off
        for t in (t1, t2):
            (src, dst), model = next(iter(t.links.items()))
            t.links[(src, dst)] = JitteredDelay(model.nominal(), 0.1)
        assert _topology_token(t1) != _topology_token(t2)
        assert _topology_token(t1) == _topology_token(t1)
        cache = PlanCache()
        p1 = get_plan(graph, n_subdomains=4, seed=1, topology=t1,
                      cache=cache)
        p2 = get_plan(graph, n_subdomains=4, seed=1, topology=t2,
                      cache=cache)
        assert p2 is not p1  # caller's RNG stream must be preserved

    def test_cache_hit_rebinds_the_callers_rhs(self, graph):
        """get_plan(a, b2) after a hit for b1 must not hand back b1."""
        from repro.plan import PlanCache

        cache = PlanCache()
        b1 = np.asarray(graph.sources)
        b2 = np.linspace(-1.0, 2.0, graph.n)
        p1 = get_plan(graph, mode="vtm", n_subdomains=4, seed=1,
                      cache=cache)
        p2 = get_plan(graph, b2, mode="vtm", n_subdomains=4, seed=1,
                      cache=cache)
        assert p2.from_cache
        assert np.array_equal(p2.base_b, b2)
        assert np.array_equal(p2.split.graph.sources, b2)
        # the expensive artifacts are shared, not rebuilt
        assert p2.network is p1.network
        assert p2.base_locals is p1.base_locals
        assert p2.fleet_template is p1.fleet_template
        # and a default-rhs solve on the view solves b2, not b1
        r = p2.session().solve(tol=1e-9)
        assert np.allclose(r.x, direct_reference_solution(p1.a_mat, b2),
                           atol=1e-6)
        assert r.converged
        # counters delegate to the root plan
        assert p1.n_solves_served == 1
        r1 = p1.session().solve(b1, tol=1e-9)
        assert r1.plan_solves == 2
