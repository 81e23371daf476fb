"""PlanStore LRU bounds and the hardened serve loop (ISSUE 5),
plus the persistent plan tier and warm server restarts (ISSUE 7).

The multiproc/server happy paths live in ``test_multiproc.py``; this
file covers the serving satellites: a bounded store evicting
least-recently-used plans (shutting their warm runners down with
them), the serve loop surviving malformed requests with error
responses, the byte-budget LRU, and a restarted ``DtmServer`` serving
its first solve straight from a populated ``plan_dir`` — no
re-planning.  Runners here use ``shards=1`` (the in-process session
path) so the tests stay fast.
"""

import numpy as np
import pytest

from repro.core.convergence import relative_residual
from repro.errors import ConfigurationError
from repro.plan import artifact, build_plan, plan_nbytes
from repro.runtime.server import (
    DtmServer,
    PlanStore,
    ServeRequest,
    plan_hash,
)
from repro.workloads.poisson import grid2d_poisson


def _total(component, name: str) -> float:
    """One counter or gauge read off *component*'s metric snapshot."""
    return component.metrics_snapshot().total(name)


@pytest.fixture(scope="module")
def plans():
    """Three small, distinct plans."""
    return [build_plan(grid2d_poisson(n), n_subdomains=2, seed=0)
            for n in (6, 7, 8)]


class TestPlanStoreLru:
    def test_unbounded_by_default(self, plans):
        store = PlanStore()
        for plan in plans:
            store.put(plan)
        assert len(store) == 3
        assert _total(store, "repro_plan_store_evictions_total") == 0
        assert store.max_plans is None

    def test_evicts_least_recently_used(self, plans):
        store = PlanStore(max_plans=2)
        keys = [store.put(plan) for plan in plans[:2]]
        store.put(plans[2])  # evicts plans[0]
        assert len(store) == 2
        assert _total(store, "repro_plan_store_evictions_total") == 1
        assert keys[0] not in store
        assert keys[1] in store
        with pytest.raises(KeyError):
            store.get(keys[0])

    def test_get_refreshes_recency(self, plans):
        store = PlanStore(max_plans=2)
        keys = [store.put(plan) for plan in plans[:2]]
        store.get(keys[0])   # 0 is now most recent
        store.put(plans[2])  # evicts 1, not 0
        assert keys[0] in store
        assert keys[1] not in store

    def test_reput_refreshes_recency(self, plans):
        store = PlanStore(max_plans=2)
        keys = [store.put(plan) for plan in plans[:2]]
        store.put(plans[0])  # re-register touches recency
        store.put(plans[2])
        assert keys[0] in store
        assert keys[1] not in store

    def test_evict_listener_runs(self, plans):
        store = PlanStore(max_plans=1)
        seen = []
        store.add_evict_listener(lambda key, plan: seen.append(key))
        k0 = store.put(plans[0])
        store.put(plans[1])
        assert seen == [k0]
        assert _total(store, "repro_plan_store_evictions_total") == 1

    def test_bad_bound_rejected(self):
        with pytest.raises(ConfigurationError):
            PlanStore(max_plans=0)


class TestServerEviction:
    def test_eviction_shuts_down_warm_runner(self, plans):
        with DtmServer(shards=1, max_plans=1) as server:
            k0 = server.register(plan=plans[0])
            res = server.solve(k0, tol=1e-7)
            assert res.converged
            runner0 = server.runner(k0)
            assert not runner0._closed
            k1 = server.register(plan=plans[1])
            # plans[0] fell out of the LRU; its pool went with it
            assert runner0._closed
            assert k0 not in server.store
            snap = server.metrics_snapshot()
            assert snap.total("repro_plan_store_evictions_total") == 1
            assert snap.value("repro_plan_store_plans") == 1
            assert server.solve(k1, tol=1e-7).converged
            with pytest.raises(KeyError):
                server.solve(k0, tol=1e-7)

    def test_store_and_max_plans_conflict(self):
        with pytest.raises(ConfigurationError):
            DtmServer(shards=1, store=PlanStore(), max_plans=2)

    def test_shared_store_bound_applies(self, plans):
        store = PlanStore(max_plans=1)
        with DtmServer(shards=1, store=store) as server:
            server.register(plan=plans[0])
            server.register(plan=plans[1])
            assert len(store) == 1
            assert _total(store, "repro_plan_store_evictions_total") == 1


class TestConcurrency:
    def test_concurrent_solves_on_one_plan_are_serialized(self, plans):
        """Racing requests for one plan (trivial through the TCP
        front end) must each get the solution of their *own* rhs —
        runners are single-caller, so the server queues them."""
        import threading

        plan = plans[2]
        a_dense = plan.a_mat.to_dense()
        rng = np.random.default_rng(11)
        bs = [rng.standard_normal(plan.n) for _ in range(4)]
        results = [None] * len(bs)
        with DtmServer(shards=1) as server:
            key = server.register(plan=plan)

            def worker(j):
                results[j] = server.solve(key, bs[j], tol=1e-7)

            threads = [threading.Thread(target=worker, args=(j,))
                       for j in range(len(bs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
        for j, res in enumerate(results):
            assert res is not None and res.converged
            x_ref = np.linalg.solve(a_dense, bs[j])
            assert np.max(np.abs(res.x - x_ref)) < 1e-5

    def test_closed_server_stops_listening_to_shared_store(
            self, plans, monkeypatch):
        evicted = []
        monkeypatch.setattr(DtmServer, "_on_evict",
                            lambda self, key, plan: evicted.append(key))
        store = PlanStore(max_plans=1)
        server = DtmServer(shards=1, store=store)
        server.register(plan=plans[0])
        server.close()
        # evictions after close must not reach the dead server
        store.put(plans[1])
        store.put(plans[2])
        assert _total(store, "repro_plan_store_evictions_total") == 2
        assert evicted == []


class TestHardenedServe:
    def test_bad_requests_yield_error_responses(self, plans):
        plan = plans[0]
        with DtmServer(shards=1) as server:
            key = server.register(plan=plan)
            good_b = np.ones(plan.n)
            requests = [
                ServeRequest(plan_id=key, b=good_b, tol=1e-7, tag="ok1"),
                ServeRequest(plan_id="deadbeef", b=good_b, tag="bad-id"),
                ServeRequest(plan_id=key, b=np.ones(plan.n + 2),
                             tag="bad-b"),
                ServeRequest(plan_id=key, b=good_b, tol=1e-7, tag="ok2"),
            ]
            responses = list(server.serve(iter(requests)))
        assert [r.tag for r in responses] == \
            ["ok1", "bad-id", "bad-b", "ok2"]
        assert [r.seq for r in responses] == [1, 2, 3, 4]
        ok1, bad_id, bad_b, ok2 = responses
        assert ok1.ok and ok2.ok
        assert ok1.result.converged and ok2.result.converged
        assert relative_residual(plan.a_mat, ok2.result.x, good_b) \
            <= 1e-7
        assert not bad_id.ok
        assert bad_id.result is None
        assert "KeyError" in bad_id.error
        assert not bad_b.ok
        assert "ValidationError" in bad_b.error
        snap = server.metrics_snapshot()
        assert snap.total("repro_server_errors_total") == 2
        assert snap.total("repro_server_solves_total") == 2
        assert snap.value("repro_server_solve_seconds",
                          plan=key)["count"] == 2

    def test_malformed_request_object(self, plans):
        with DtmServer(shards=1) as server:
            server.register(plan=plans[0])
            responses = list(server.serve(iter([object()])))
        assert len(responses) == 1
        assert not responses[0].ok
        assert responses[0].result is None
        assert "AttributeError" in responses[0].error

    def test_metrics_snapshot_has_serving_counters(self, plans):
        with DtmServer(shards=1) as server:
            server.register(plan=plans[0])
            snap = server.metrics_snapshot()
        # present (not merely absent-reads-as-zero) before any solve
        assert snap.value("repro_server_errors_total") == 0
        assert snap.value("repro_server_solves_total") == 0
        assert snap.value("repro_plan_store_evictions_total") == 0
        assert snap.value("repro_plan_store_plans") == 1

    def test_plan_hash_stable(self, plans):
        assert plan_hash(plans[0]) == plan_hash(plans[0])
        assert plan_hash(plans[0]) != plan_hash(plans[1])


class TestPlanStoreBytes:
    def test_byte_budget_keeps_only_the_newest(self, plans):
        # max_bytes=1 cannot hold any plan, but the entry just
        # admitted is never evicted: the store degrades to "newest
        # only", it never becomes useless
        store = PlanStore(max_bytes=1)
        k0 = store.put(plans[0])
        k1 = store.put(plans[1])
        assert k0 not in store
        assert k1 in store
        assert _total(store, "repro_plan_store_evictions_total") == 1

    def test_byte_accounting_in_metrics(self, plans):
        store = PlanStore(max_bytes=10 * plan_nbytes(plans[0]))
        store.put(plans[0])
        assert _total(store, "repro_plan_store_bytes") == \
            plan_nbytes(plans[0])
        assert store.max_bytes == 10 * plan_nbytes(plans[0])
        store.put(plans[1])
        assert _total(store, "repro_plan_store_bytes") == \
            plan_nbytes(plans[0]) + plan_nbytes(plans[1])

    def test_eviction_releases_bytes(self, plans):
        budget = plan_nbytes(plans[0]) + plan_nbytes(plans[1])
        store = PlanStore(max_bytes=budget)
        store.put(plans[0])
        store.put(plans[1])
        store.put(plans[2])  # overflows: LRU falls out
        assert _total(store, "repro_plan_store_bytes") <= budget
        assert _total(store, "repro_plan_store_evictions_total") >= 1

    def test_bad_byte_bound_rejected(self):
        with pytest.raises(ConfigurationError):
            PlanStore(max_bytes=0)


class TestPlanDirTier:
    def test_put_persists_an_artifact(self, plans, tmp_path):
        store = PlanStore(plan_dir=str(tmp_path / "plans"))
        key = store.put(plans[0])
        assert key in store.disk

    def test_fresh_store_warm_loads_from_disk(self, plans, tmp_path):
        plan_dir = str(tmp_path / "plans")
        key = PlanStore(plan_dir=plan_dir).put(plans[0])
        fresh = PlanStore(plan_dir=plan_dir)
        assert len(fresh) == 0  # nothing in memory yet
        loaded = fresh.get(key)
        assert loaded.n == plans[0].n
        assert _total(fresh, "repro_plan_store_disk_loads_total") == 1
        assert key in fresh  # admitted into the memory tier
        fresh.get(key)  # second get is a memory hit
        assert _total(fresh, "repro_plan_store_disk_loads_total") == 1

    def test_a_disk_hit_weighs_the_plan_without_packing_it(
            self, tmp_path, monkeypatch):
        """``get`` used to pickle the loaded plan and read every mapped
        segment to learn one integer the artifact header already had;
        ``put`` packed twice (once to save, once to weigh)."""
        packs = []
        pack = artifact._pack
        monkeypatch.setattr(
            artifact, "_pack",
            lambda plan: packs.append(plan) or pack(plan))
        plan = build_plan(grid2d_poisson(9), n_subdomains=2, seed=0)
        plan_dir = str(tmp_path / "plans")
        store = PlanStore(plan_dir=plan_dir)
        key = store.put(plan)
        assert len(packs) == 1  # the save; its header weighs the plan
        fresh = PlanStore(plan_dir=plan_dir)
        loaded = fresh.get(key)
        assert loaded.n == plan.n and len(packs) == 1
        segments, blob = pack(plan)
        assert fresh.total_bytes == store.total_bytes == len(blob) + sum(
            arr.nbytes for arr in segments)

    def test_disk_tier_counts_in_the_store_snapshot(self, plans,
                                                   tmp_path):
        store = PlanStore(plan_dir=str(tmp_path / "plans"))
        store.put(plans[0])
        assert _total(store, "repro_disk_store_stores_total") == 1
        assert store.disk.total_bytes() > 0


class TestWarmRestart:
    def test_restarted_server_serves_without_replanning(self, plans,
                                                        tmp_path):
        """ISSUE 7 acceptance: a DtmServer restarted against a
        populated plan_dir serves its first solve from the artifact
        — one disk load, no register, bitwise-identical result."""
        plan_dir = str(tmp_path / "plans")
        plan = plans[2]
        b = np.ones(plan.n)
        with DtmServer(shards=1, plan_dir=plan_dir) as server1:
            key = server1.register(plan=plan)
            x_before = server1.solve(key, b, tol=1e-7).x

        # the restart: a brand-new server, same directory, no register
        with DtmServer(shards=1, plan_dir=plan_dir) as server2:
            res = server2.solve(key, b, tol=1e-7)
            assert res.converged
            assert np.array_equal(res.x, x_before)
            assert _total(server2.store,
                          "repro_plan_store_disk_loads_total") == 1

    def test_unknown_plan_still_raises_after_restart(self, plans,
                                                     tmp_path):
        with DtmServer(shards=1,
                       plan_dir=str(tmp_path / "plans")) as server:
            with pytest.raises(KeyError):
                server.solve("deadbeef", np.ones(8))

    def test_store_and_plan_dir_conflict(self, tmp_path):
        with pytest.raises(ConfigurationError):
            DtmServer(shards=1, store=PlanStore(),
                      plan_dir=str(tmp_path / "plans"))

    def test_store_and_max_bytes_conflict(self):
        with pytest.raises(ConfigurationError):
            DtmServer(shards=1, store=PlanStore(), max_bytes=1 << 20)
