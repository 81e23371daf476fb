"""The elastic worker mesh (ISSUE 8).

Covers the tentpole contract:

* resolution and lifecycle of :class:`MeshTransport` — a closed hub
  leaves no accept thread and no listening socket behind;
* 4-shard mesh runs converging to the same reference-free tolerances
  as the shm fabric, with warm starts and RHS swaps on a persistent
  pool;
* the bitwise ``shards=1`` delegation contract;
* failure recovery: a worker killed before the first sweep, mid-solve
  or between solves is detected, respawned and re-snapshotted, and the
  solve completes to the same stopping decision as a failure-free run;
* two simultaneous failures, the recovery budget, and the
  ``recover=False`` opt-out;
* ``repro.net.worker`` connect retry with exponential backoff
  (coordinator and workers may start in any order).
"""

import faulthandler
import socket
import threading
import time

import numpy as np
import pytest

from repro.api import ResidualRule, solve_dtm
from repro.core.convergence import relative_residual
from repro.errors import (
    ConfigurationError,
    MultiprocError,
    TransportError,
    WorkerLostError,
)
from repro.net.faults import FaultPlan, ShardFaults
from repro.net.mesh import MeshTransport
from repro.net.transport import resolve_transport
from repro.net.worker import run_worker
from repro.plan import build_plan
from repro.plan.session import SolverSession
from repro.runtime.multiproc import MultiprocDtmRunner
from repro.workloads.poisson import grid2d_poisson

faulthandler.enable()

TOL = 1e-7
#: the acceptance stopping rule for the recovery scenarios
REC_TOL = 1e-6


@pytest.fixture(scope="module")
def plan():
    return build_plan(grid2d_poisson(20), n_subdomains=8, seed=1)


@pytest.fixture(scope="module")
def rec_plan():
    """A slightly larger plan so mid-solve kills land mid-solve."""
    return build_plan(grid2d_poisson(32), n_subdomains=8, seed=3)


@pytest.fixture(scope="module")
def mesh_runner(plan):
    """One warm 4-shard mesh worker pool shared by the solve tests."""
    with MultiprocDtmRunner(plan, shards=4, transport="mesh") as r:
        yield r


def direct_solution(plan, b=None):
    b = plan.base_b if b is None else np.asarray(b, dtype=np.float64)
    return np.linalg.solve(plan.a_mat.to_dense(), b)


class TestResolution:
    def test_name_resolves(self):
        t = resolve_transport("mesh")
        assert isinstance(t, MeshTransport)
        assert t.supports_recovery
        assert not resolve_transport("shm").supports_recovery
        assert resolve_transport(t) is t

    def test_descriptor_requires_bind(self):
        with pytest.raises(ConfigurationError):
            MeshTransport().worker_descriptor(0)

    def test_faults_need_spawned_workers(self, plan):
        with pytest.raises(ConfigurationError):
            MultiprocDtmRunner(
                plan, shards=2, transport="mesh", spawn_workers=False,
                faults=FaultPlan({0: ShardFaults(kill_at_sweep=5)}))


class TestHubClose:
    def test_closed_runners_leave_no_accept_thread_or_listener(self, plan):
        """Closing a listening socket does not wake a thread blocked
        in ``accept()`` on it: every closed mesh runner used to leave
        its ``dtm-net-accept`` thread and a kernel socket that went on
        queueing dialers of the "closed" address."""

        def accept_threads():
            return sum(t.name == "dtm-net-accept"
                       for t in threading.enumerate())

        before = accept_threads()
        addresses = []
        for _ in range(3):
            transport = MeshTransport()
            with MultiprocDtmRunner(plan, shards=2, transport=transport,
                                    spawn_workers=False):
                assert accept_threads() == before + 1
                addresses.append((transport.host, transport.port))
        assert accept_threads() == before
        for address in addresses:
            with pytest.raises(ConnectionRefusedError):
                socket.create_connection(address, timeout=5.0).close()


class TestMeshSolve:
    def test_converges_to_direct_solution(self, plan, mesh_runner):
        res = mesh_runner.solve(stopping=ResidualRule(tol=TOL),
                                wall_budget=120.0)
        assert res.converged
        assert res.relative_residual <= TOL
        assert np.max(np.abs(res.x - direct_solution(plan))) < 1e-4
        assert not plan.reference_materialized

    def test_rhs_swap_on_warm_pool(self, plan, mesh_runner):
        rng = np.random.default_rng(7)
        b = rng.standard_normal(plan.n)
        res = mesh_runner.solve(b=b, stopping=ResidualRule(tol=TOL),
                                wall_budget=120.0)
        assert res.converged
        assert relative_residual(plan.a_mat, res.x, b) <= TOL

    def test_warm_start(self, plan, mesh_runner):
        cold = mesh_runner.solve(stopping=ResidualRule(tol=TOL))
        warm = mesh_runner.solve(stopping=ResidualRule(tol=TOL),
                                 warm_start=True)
        assert not cold.warm_started
        assert warm.warm_started
        assert warm.converged

    def test_no_recoveries_on_a_healthy_fleet(self, mesh_runner):
        assert mesh_runner.n_recoveries == 0

    def test_api_transport_mesh(self):
        res = solve_dtm(
            grid2d_poisson(16),
            n_subdomains=6,
            seed=2,
            backend="multiproc",
            shards=2,
            transport="mesh",
            stopping=ResidualRule(tol=1e-6),
            wall_budget=120.0,
        )
        assert res.converged
        assert res.relative_residual <= 1e-6


class TestShardsOneBitwise:
    def test_mesh_shards_one_delegates_to_simulator(self, plan):
        """``shards=1`` short-circuits before any socket exists — the
        mesh spelling must be bitwise the fleet simulator."""
        rule = ResidualRule(tol=1e-8)
        with MultiprocDtmRunner(plan, shards=1,
                                transport="mesh") as runner:
            got = runner.solve(stopping=rule, t_max=50_000, tol=None)
        want = SolverSession(plan).solve(stopping=rule, t_max=50_000,
                                         tol=None)
        assert np.array_equal(got.x, want.x)
        assert got.iterations == want.iterations
        assert got.stopped_by == want.stopped_by


class TestRecovery:
    """Killed workers rejoin from the coordinator's snapshot and the
    solve completes to the same stopping decision."""

    def _clean_reference(self, rec_plan):
        with MultiprocDtmRunner(rec_plan, shards=4,
                                transport="mesh") as r:
            res = r.solve(stopping=ResidualRule(tol=REC_TOL),
                          wall_budget=120.0)
        assert res.converged and r.n_recoveries == 0
        return res

    def test_kill_mid_solve_completes_to_same_decision(self, rec_plan):
        clean = self._clean_reference(rec_plan)
        faults = FaultPlan({2: ShardFaults(kill_at_sweep=25)})
        with MultiprocDtmRunner(rec_plan, shards=4, transport="mesh",
                                faults=faults) as r:
            res = r.solve(stopping=ResidualRule(tol=REC_TOL),
                          wall_budget=120.0)
            assert r.n_recoveries >= 1
        assert res.converged and res.stopped_by == "residual"
        assert res.relative_residual <= REC_TOL
        assert clean.stopped_by == res.stopped_by
        # both runs satisfy the rule; they agree within its tolerance
        assert np.max(np.abs(res.x - clean.x)) < 1e-4

    def test_kill_before_first_sweep(self, rec_plan):
        faults = FaultPlan({1: ShardFaults(kill_at_sweep=0)})
        with MultiprocDtmRunner(rec_plan, shards=4, transport="mesh",
                                faults=faults) as r:
            res = r.solve(stopping=ResidualRule(tol=REC_TOL),
                          wall_budget=120.0)
            assert r.n_recoveries >= 1
        assert res.converged
        assert res.relative_residual <= REC_TOL

    def test_two_simultaneous_failures(self, rec_plan):
        faults = FaultPlan({
            0: ShardFaults(kill_at_sweep=20),
            3: ShardFaults(kill_at_sweep=20),
        })
        with MultiprocDtmRunner(rec_plan, shards=4, transport="mesh",
                                faults=faults) as r:
            res = r.solve(stopping=ResidualRule(tol=REC_TOL),
                          wall_budget=120.0)
            assert r.n_recoveries >= 2
        assert res.converged
        assert res.relative_residual <= REC_TOL

    def test_kill_after_quiescence_then_resolve(self, rec_plan):
        """A worker lost *between* solves (fleet idle) is respawned on
        the next solve and the pool keeps serving."""
        with MultiprocDtmRunner(rec_plan, shards=4,
                                transport="mesh") as r:
            first = r.solve(stopping=ResidualRule(tol=REC_TOL),
                            wall_budget=120.0)
            assert first.converged
            victim = r._procs[1]
            victim.terminate()
            victim.join(timeout=10.0)
            assert not victim.is_alive()
            second = r.solve(stopping=ResidualRule(tol=REC_TOL),
                             wall_budget=120.0)
            assert r.n_recoveries >= 1
        assert second.converged
        assert second.relative_residual <= REC_TOL

    def test_exhausted_budget_raises_worker_lost(self, rec_plan):
        faults = FaultPlan({2: ShardFaults(kill_at_sweep=10)})
        with MultiprocDtmRunner(rec_plan, shards=4, transport="mesh",
                                faults=faults, max_recoveries=0) as r:
            with pytest.raises(WorkerLostError):
                r.solve(stopping=ResidualRule(tol=REC_TOL),
                        wall_budget=120.0)

    def test_recover_false_aborts(self, rec_plan):
        faults = FaultPlan({0: ShardFaults(kill_at_sweep=5)})
        with MultiprocDtmRunner(rec_plan, shards=4, transport="mesh",
                                faults=faults, recover=False) as r:
            with pytest.raises(MultiprocError):
                r.solve(stopping=ResidualRule(tol=REC_TOL),
                        wall_budget=120.0)

    def test_invalid_recovery_knobs_rejected(self, plan):
        with pytest.raises(ConfigurationError):
            MultiprocDtmRunner(plan, shards=2, transport="mesh",
                               max_recoveries=-1)
        with pytest.raises(ConfigurationError):
            MultiprocDtmRunner(plan, shards=2, transport="mesh",
                               recovery_timeout=0.0)


class TestWorkerRetry:
    def test_unreachable_coordinator_retries_then_raises(self, capsys):
        # reserve-and-release a port: nothing listens there
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        with pytest.raises(TransportError):
            run_worker("127.0.0.1", port, "tok", 0,
                       retries=2, backoff=0.01)
        err = capsys.readouterr().err
        assert err.count("coordinator not reachable") == 2

    def test_workers_may_start_before_the_coordinator(self, plan):
        """Fleet startup order must not matter: workers launched first
        back off until the coordinator binds, then join and solve."""
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        transport = MeshTransport(host="127.0.0.1", port=port)
        threads = [
            threading.Thread(
                target=run_worker,
                args=("127.0.0.1", port, transport.token, i),
                kwargs=dict(retries=40, backoff=0.05),
                daemon=True)
            for i in range(2)
        ]
        for t in threads:
            t.start()
        time.sleep(0.2)  # let the first connect attempts fail
        with MultiprocDtmRunner(plan, shards=2, transport=transport,
                                spawn_workers=False) as runner:
            res = runner.solve(stopping=ResidualRule(tol=TOL),
                               wall_budget=120.0)
            assert res.converged
            assert res.relative_residual <= TOL
        for t in threads:
            t.join(timeout=10.0)
        assert not any(t.is_alive() for t in threads)
