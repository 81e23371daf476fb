"""Cross-process metric aggregation, end to end (ISSUE 10).

The fleet-wide picture: worker processes snapshot their private
registries onto the state/heartbeat channel, the coordinator merges
them with its own, the serving layer exposes the merged view over the
wire, and the per-solve trace rides on the result.  One live
multiproc runner and one live server+client pair cover the whole
path.
"""

import faulthandler

import numpy as np
import pytest

from repro.net import DtmClient, DtmTcpFrontend
from repro.obs import MetricsSnapshot, SolveTrace, render_prometheus
from repro.plan import build_plan
from repro.runtime.multiproc import MultiprocDtmRunner
from repro.runtime.server import DtmServer
from repro.workloads.poisson import grid2d_poisson

faulthandler.enable()

TOL = 1e-6


@pytest.fixture(scope="module")
def graph():
    return grid2d_poisson(20)


@pytest.fixture(scope="module")
def plan(graph):
    return build_plan(graph, n_subdomains=8, seed=1)


@pytest.fixture(scope="module")
def merged(plan, graph):
    """One obs-enabled mesh solve, its merged snapshot and trace."""
    with MultiprocDtmRunner(plan, shards=3, transport="mesh",
                            obs=True) as r:
        res = r.solve(graph.sources, tol=TOL, wall_budget=120.0,
                      trace=True)
        snap = r.metrics_snapshot()
    assert res.converged
    return res, snap


class TestRunnerAggregation:
    def test_coordinator_counters(self, merged):
        _, snap = merged
        assert snap.total("repro_runner_solves_total") == 1.0
        # every frame the hub saw is in the merged view; state
        # publishes always cross it, wave frames only while a peer
        # socket is missing (legitimately 0 once peers are dialled)
        assert snap.value("repro_router_frames_total",
                          type="states") > 0

    def test_per_shard_sweeps_synthesized(self, merged):
        _, snap = merged
        series = snap.series("repro_worker_sweeps_total")
        shards = {dict(k)["shard"] for k in series}
        assert shards == {"0", "1", "2"}
        assert all(v > 0 for v in series.values())

    def test_worker_process_counters_arrive(self, merged):
        # wave-frame counters live in the *worker* processes and can
        # only appear here via the state-channel snapshot piggyback
        _, snap = merged
        series = snap.series("repro_mesh_frames_total")
        assert {dict(k)["shard"] for k in series} == {"0", "1", "2"}
        assert all(v > 0 for v in series.values())

    def test_prometheus_rendering(self, merged):
        _, snap = merged
        text = render_prometheus(snap)
        assert "# TYPE repro_worker_sweeps_total counter" in text
        assert 'repro_worker_sweeps_total{shard="0"}' in text

    def test_trace_attached_to_result(self, merged):
        res, _ = merged
        assert isinstance(res.trace, SolveTrace)
        kinds = {rec["kind"] for rec in res.trace.records}
        assert "stop" in kinds
        assert "rhs_swap" in kinds
        summary = res.trace.summarize()
        assert summary["kinds"]["stop"]["count"] == 1

    def test_disabled_by_default(self, plan, graph):
        with MultiprocDtmRunner(plan, shards=2) as r:
            res = r.solve(graph.sources, tol=TOL, wall_budget=120.0)
            snap = r.metrics_snapshot()
        assert res.converged
        assert res.trace is None
        assert snap.metrics == {}

    def test_shm_transport_synthesizes_sweeps(self, plan, graph):
        # shm has no byte channel for worker snapshots; the
        # coordinator-side sweep synthesis must still cover it
        with MultiprocDtmRunner(plan, shards=2, obs=True) as r:
            res = r.solve(graph.sources, tol=TOL, wall_budget=120.0)
            snap = r.metrics_snapshot()
        assert res.converged
        series = snap.series("repro_worker_sweeps_total")
        assert {dict(k)["shard"] for k in series} == {"0", "1"}


class TestServedMetrics:
    @pytest.fixture(scope="class")
    def service(self, graph):
        with DtmServer(shards=2, obs=True) as server:
            with DtmTcpFrontend(server) as frontend:
                with DtmClient(frontend.address) as client:
                    plan_id = client.register(
                        graph, n_subdomains=4, seed=1)
                    client.solve(plan_id, graph.sources, tol=TOL)
                    yield server, client, plan_id

    def test_client_metrics_snapshot(self, service):
        _, client, plan_id = service
        snap = client.metrics()
        assert isinstance(snap, MetricsSnapshot)
        assert snap.total("repro_server_solves_total") >= 1.0
        # the per-plan latency histogram: its count is the number of
        # solves served for that plan
        hist = snap.value("repro_server_solve_seconds", plan=plan_id)
        assert hist["count"] >= 1
        assert hist["sum"] > 0.0
        assert snap.total("repro_plan_cache_misses_total") >= 1.0

    def test_worker_series_reach_the_client(self, service):
        _, client, _ = service
        snap = client.metrics()
        shards = {dict(k)["shard"]
                  for k in snap.series("repro_worker_sweeps_total")}
        assert shards == {"0", "1"}

    def test_text_rendering_matches_snapshot(self, service):
        _, client, _ = service
        text = client.metrics(as_text=True)
        assert "# TYPE repro_server_solve_seconds histogram" in text
        assert 'le="+Inf"' in text
        assert "repro_server_solves_total" in text

    def test_wire_snapshot_agrees_with_in_process_one(self, service):
        # the metrics op serves exactly the counts the server reads
        # off its own registries
        server, client, _ = service
        snap = client.metrics()
        local = server.metrics_snapshot()
        for name in ("repro_server_solves_total",
                     "repro_server_errors_total",
                     "repro_server_warm_hits_total",
                     "repro_plan_store_plans"):
            assert snap.total(name) == local.total(name), name
        assert snap.value("repro_plan_store_plans") == len(server.store)


class TestServerWithoutWorkers:
    def test_metrics_snapshot_before_any_solve(self, graph):
        with DtmServer(shards=1, obs=True) as server:
            snap = server.metrics_snapshot()
            assert snap.total("repro_server_solves_total") == 0.0
            b = np.asarray(graph.sources)
            pid = server.register(graph, n_subdomains=4, seed=1)
            server.solve(pid, b, tol=TOL)
            snap = server.metrics_snapshot()
            assert snap.total("repro_server_solves_total") == 1.0
