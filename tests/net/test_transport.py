"""The machine-spanning transport layer (ISSUE 5, one fabric since 14).

Covers the tentpole contract:

* resolution and lifecycle of the :class:`Transport` implementations
  (``"tcp"`` is gone: it raises, naming ``"mesh"``);
* socket-fabric loopback runs (≥2 shards) converging to the same
  reference-free tolerances as the shm fabric, with RHS swaps and warm
  starts on a persistent worker pool, and without ever materializing
  the plan's reference factor;
* the hub-only path — no worker ever learns a peer address, so every
  wave frame is relayed by the coordinator's hub: the whole behaviour
  of the deleted ``tcp`` transport, kept as the fallback it always was;
* externally-attached workers (``spawn_workers=False`` +
  ``repro.net.worker.run_worker``) — the machine-spanning shape, here
  joined from threads instead of remote hosts;
* handshake hardening (hub bad token, unknown shard index, peer bad
  token);
* the shm shard hand-off — counted, not clocked: a worker descriptor
  is names and sizes, the worker's stacks are read-only views of a
  segment the coordinator wrote once, the coordinator keeps no copy of
  them, and no segment outlives its runner or its transport;
* the ``api.solve_dtm(transport=...)`` threading.
"""

import faulthandler
import gc
import os
import pickle
import socket
import threading
import time

import numpy as np
import pytest

from repro.api import ResidualRule, solve_dtm
from repro.core.convergence import QuiescenceRule, relative_residual
from repro.errors import ConfigurationError, ProtocolError, TransportError
from repro.net import mesh, wire
from repro.net.mesh import MeshTransport, MeshWorkerPort
from repro.net import transport as transport_mod
from repro.net.transport import (
    ShmTransport,
    open_worker_port,
    resolve_transport,
)
from repro.net.worker import run_worker
from repro.plan import build_plan
from repro.runtime.multiproc import MultiprocDtmRunner
from repro.workloads.poisson import grid2d_poisson

faulthandler.enable()

TOL = 1e-7


@pytest.fixture(scope="module")
def plan():
    return build_plan(grid2d_poisson(20), n_subdomains=8, seed=1)


@pytest.fixture(scope="module")
def socket_runner(plan):
    """One warm 2-shard socket worker pool shared by the solve tests."""
    with MultiprocDtmRunner(plan, shards=2, transport="mesh") as r:
        yield r


def direct_solution(plan, b=None):
    b = plan.base_b if b is None else np.asarray(b, dtype=np.float64)
    return np.linalg.solve(plan.a_mat.to_dense(), b)


class TestResolution:
    def test_names(self):
        assert isinstance(resolve_transport("shm"), ShmTransport)
        assert isinstance(resolve_transport(None), ShmTransport)
        assert isinstance(resolve_transport("mesh"), MeshTransport)
        t = MeshTransport()
        assert resolve_transport(t) is t

    def test_unknown_rejected(self):
        with pytest.raises(ConfigurationError):
            resolve_transport("carrier-pigeon")

    def test_tcp_is_gone_and_names_its_replacement(self):
        with pytest.raises(ConfigurationError, match="'mesh'"):
            resolve_transport("tcp")

    def test_runner_rejects_unknown_transport(self, plan):
        with pytest.raises(ConfigurationError):
            MultiprocDtmRunner(plan, shards=2, transport="udp")

    def test_double_bind_rejected(self, plan):
        from repro.plan.shard import extract_shards

        specs = extract_shards(plan, 2)
        for transport in (ShmTransport(), MeshTransport()):
            port = transport.bind(specs, n_slots=8, n_states=8,
                                  idle_sleep=0.001)
            try:
                with pytest.raises(ConfigurationError):
                    transport.bind(specs, n_slots=8, n_states=8,
                                   idle_sleep=0.001)
            finally:
                port.close()

    def test_descriptor_requires_bind(self):
        with pytest.raises(ConfigurationError):
            MeshTransport().worker_descriptor(0)


def shm_listing():
    return sorted(os.listdir("/dev/shm"))


def ndarray_bytes(root) -> int:
    """Total ``nbytes`` of the ndarrays reachable from *root* through
    containers and ``repro`` objects."""
    seen, total, stack = set(), 0, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            total += obj.nbytes
        elif isinstance(obj, (list, tuple, dict)) \
                or type(obj).__module__.startswith("repro."):
            stack.extend(gc.get_referents(obj))
    return total


@pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                    reason="needs a listable /dev/shm")
class TestShmHandOff:
    """The spawn pipe carries names; the shard stays in its segment."""

    @pytest.fixture(scope="class")
    def plan100(self):
        """The benchmark's ``cold_restart`` system: 0.77 MB of port and
        halo rows per shard (3.7 MB of full stacks)."""
        return build_plan(grid2d_poisson(100), n_subdomains=16,
                          grid_shape=[100, 100], parts_shape=[4, 4])

    def test_descriptor_is_names_and_sizes(self, plan100):
        """... and no wake semaphore: that crosses into a process by
        inheritance only, so each pooled worker is born with its own."""
        with MultiprocDtmRunner(plan100, shards=2,
                                spawn_workers=False) as runner:
            for i in range(2):
                descriptor = runner.transport.worker_descriptor(i)
                for member in descriptor:
                    if isinstance(member, (bytes, bytearray, memoryview,
                                           np.ndarray)):
                        assert memoryview(member).nbytes <= 1024
                assert len(pickle.dumps(descriptor)) < 1024

    def test_worker_stacks_are_read_only_views(self, plan100):
        with MultiprocDtmRunner(plan100, shards=2,
                                spawn_workers=False) as runner:
            spec, worker, _ = open_worker_port(
                runner.transport.worker_descriptor(1), runner._wakes[1])
            try:
                arrays = [spec.parts, spec.kernel.slot_port]
                for group in spec.kernel.groups:
                    arrays += [group.members, group.X3,
                               group.slot_idx, group.port_idx,
                               group.state_idx]
                assert sum(a.nbytes for a in arrays) > 700_000
                for arr in arrays:
                    assert arr.flags.writeable is False
                    assert arr.flags.owndata is False
            finally:
                del spec, arrays, group, arr
                worker.close()

    def test_the_coordinator_holds_the_stacks_once(self, plan100):
        """The coordinator keeps index tables only — and the mesh hub's
        SPEC blobs (1.6 MB of port and halo rows; 6.6 MB when they
        carried the full stacks) are the one copy there, not a second
        one beside the specs."""
        with MultiprocDtmRunner(plan100, shards=2,
                                spawn_workers=False) as runner:
            assert all(spec.kernel is None for spec in runner.specs)
            assert ndarray_bytes(runner.specs) < 1_000_000
        with MultiprocDtmRunner(plan100, shards=2, transport="mesh",
                                spawn_workers=False) as runner:
            assert ndarray_bytes(runner.specs) < 1_000_000
            hub = runner.transport._hub
            assert sum(len(p) for p in hub.payloads) > 1_500_000

    def test_no_segment_outlives_the_runner(self, plan):
        # the runner's workers come from the pool and go back to it:
        # their wake semaphores go with them, not with the runner
        # (tests/runtime/test_worker_pool.py)
        before = shm_listing()
        with MultiprocDtmRunner(plan, shards=2) as runner:
            created = set(shm_listing()) - set(before)
            assert sum("-spec" in name for name in created) == 2
            assert runner.solve(stopping=ResidualRule(tol=TOL)).converged
            wakes = {"sem." + worker.wake._semlock.name.lstrip("/")
                     for worker in runner._workers}
        assert not (created - wakes) & set(shm_listing())

    def test_a_dropped_transport_unlinks_its_segments(self, plan):
        """The finalizer path: no ``close()``, the spec segments go
        with the others."""
        from repro.plan.shard import extract_shards

        before = shm_listing()
        transport = ShmTransport()
        port = transport.bind(extract_shards(plan, 2), n_slots=8,
                              n_states=8, idle_sleep=0.001)
        created = set(shm_listing()) - set(before)
        assert sum("-spec" in name for name in created) == 2
        del port, transport
        gc.collect()
        assert shm_listing() == before


class TestShmIdleWait:
    """Between two epochs an shm worker blocks on its wake semaphore.
    It used to sleep-poll EPOCH, and each of those wake-ups — while the
    coordinator computed the next right-hand-side swap on one core —
    was placed on the other: a third of nx=240's epochs began with both
    workers on one core, sharing it until the scheduler's next balance
    tick."""

    @pytest.fixture
    def ports(self, plan):
        """``(coordinator port, worker port of shard 0)`` in-process."""
        with MultiprocDtmRunner(plan, shards=2,
                                spawn_workers=False) as runner:
            _, worker, _ = open_worker_port(
                runner.transport.worker_descriptor(0), runner._wakes[0])
            try:
                yield runner._port, worker
            finally:
                worker.close()

    @staticmethod
    def _wait_in_thread(worker):
        woke = threading.Event()
        threading.Thread(
            target=lambda: (worker.idle_wait(1e-3), woke.set()),
            daemon=True).start()
        return woke

    def test_blocks_until_the_epoch_is_posted(self, ports):
        coordinator, worker = ports
        woke = self._wait_in_thread(worker)
        assert not woke.wait(0.05)  # fifty idle_sleeps: not a poll
        coordinator.begin_epoch(1)
        assert woke.wait(5.0)
        assert worker.current_epoch() == 1

    def test_shutdown_wakes_it_too(self, ports):
        coordinator, worker = ports
        woke = self._wait_in_thread(worker)
        assert not woke.wait(0.05)
        coordinator.shutdown()
        assert woke.wait(5.0)
        assert worker.shutdown_requested()

    def test_every_epoch_posts_one_wake_per_shard(self, ports):
        """A worker that entered an epoch unasked (it was still busy
        when the wake came) finds the wake later: one empty pass of
        the idle loop, then it blocks again."""
        coordinator, worker = ports
        coordinator.begin_epoch(1)
        coordinator.begin_epoch(2)
        start = time.perf_counter()
        worker.idle_wait(1e-3)
        worker.idle_wait(1e-3)
        assert time.perf_counter() - start < 0.05
        assert not self._wait_in_thread(worker).wait(0.05)
        coordinator.shutdown()

    def test_a_silent_coordinator_is_waited_for_with_patience(
            self, ports, monkeypatch):
        """... so a worker whose coordinator died re-reads the control
        words now and then, as the polling loop did."""
        _, worker = ports
        monkeypatch.setattr(transport_mod, "_IDLE_PATIENCE", 0.02)
        start = time.perf_counter()
        worker.idle_wait(1e-3)
        assert 0.02 <= time.perf_counter() - start < 1.0

    @pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                        reason="named segments are not listed here")
    def test_close_leaves_no_semaphore_behind(self, plan):
        before = set(os.listdir("/dev/shm"))
        with MultiprocDtmRunner(plan, shards=2, spawn_workers=False):
            assert set(os.listdir("/dev/shm")) - before
        assert set(os.listdir("/dev/shm")) == before


class TestTcpSolve:
    def test_residual_converges_to_tolerance(self, plan, socket_runner):
        res = socket_runner.solve(stopping=ResidualRule(tol=TOL),
                               wall_budget=120.0)
        assert res.converged
        assert res.stopped_by == "residual"
        assert res.relative_residual <= TOL
        assert np.isnan(res.rms_error)
        assert not plan.reference_materialized
        x_ref = direct_solution(plan)
        assert np.max(np.abs(res.x - x_ref)) < 1e-4
        assert res.shard_reports is not None
        assert len(res.shard_reports) == 2
        assert all(rep.sweeps > 0 for rep in res.shard_reports)

    def test_rhs_swap_on_warm_pool(self, plan, socket_runner):
        rng = np.random.default_rng(7)
        b2 = rng.standard_normal(plan.n)
        res = socket_runner.solve(b2, stopping=ResidualRule(tol=TOL),
                               wall_budget=120.0)
        assert res.converged
        assert relative_residual(plan.a_mat, res.x, b2) <= TOL
        assert np.max(np.abs(res.x - direct_solution(plan, b2))) < 1e-4

    def test_warm_start_flag(self, socket_runner):
        cold = socket_runner.solve(stopping=ResidualRule(tol=TOL))
        warm = socket_runner.solve(stopping=ResidualRule(tol=TOL),
                                warm_start=True)
        assert not cold.warm_started
        assert warm.warm_started
        assert warm.converged

    def test_quiescence_rule(self, plan, socket_runner):
        res = socket_runner.solve(stopping=QuiescenceRule(threshold=1e-10),
                               wall_budget=120.0)
        assert res.converged
        assert res.stopped_by == "quiescence"
        assert res.relative_residual < 1e-6
        assert not plan.reference_materialized

    def test_matches_shm_tolerance(self, plan, socket_runner):
        """The acceptance shape: both fabrics reach the same tol."""
        rule = ResidualRule(tol=TOL)
        sock = socket_runner.solve(stopping=rule, wall_budget=120.0)
        with MultiprocDtmRunner(plan, shards=2, transport="shm") as r:
            shm = r.solve(stopping=rule, wall_budget=120.0)
        assert sock.converged and shm.converged
        assert sock.relative_residual <= TOL
        assert shm.relative_residual <= TOL
        assert np.max(np.abs(sock.x - shm.x)) < 1e-4


class TestHubOnlyPath:
    def test_converges_with_every_frame_relayed(self, plan, monkeypatch):
        """No peer directory is ever broadcast, so no worker can dial a
        neighbor and every wave frame goes through the hub — what
        ``transport="tcp"`` used to be."""
        monkeypatch.setattr(mesh._Hub, "_broadcast_peers",
                            lambda self: None)
        with MultiprocDtmRunner(plan, shards=3, transport="mesh",
                                obs=True) as r:
            res = r.solve(stopping=ResidualRule(tol=TOL),
                          wall_budget=120.0)
            snap = r.metrics_snapshot()
        assert res.converged
        assert res.relative_residual <= TOL
        assert np.max(np.abs(res.x - direct_solution(plan))) < 1e-4
        frames = snap.total("repro_mesh_frames_total")
        assert frames > 0
        assert snap.total("repro_mesh_fallback_total") == frames
        assert snap.total("repro_mesh_dials_total") == 0
        assert snap.value("repro_router_frames_total",
                          type="waves") > 0


class TestExternalWorkers:
    def test_attached_workers_solve(self, plan):
        """spawn_workers=False + net.worker joins — machine-spanning
        shape, with 'remote' workers attached from threads."""
        transport = MeshTransport()
        with MultiprocDtmRunner(plan, shards=2, transport=transport,
                                spawn_workers=False) as runner:
            threads = [
                threading.Thread(
                    target=run_worker,
                    args=(transport.host, transport.port,
                          transport.token, i),
                    daemon=True)
                for i in range(2)
            ]
            for t in threads:
                t.start()
            res = runner.solve(stopping=ResidualRule(tol=TOL),
                               wall_budget=120.0)
            assert res.converged
            assert res.relative_residual <= TOL
        for t in threads:
            t.join(timeout=10.0)
        assert not any(t.is_alive() for t in threads)


class TestMidEpochClose:
    def test_close_mid_epoch_releases_attached_workers(self, plan):
        """close() broadcasts SHUTDOWN without STOP; workers sweeping
        an active epoch must still exit (a vanished coordinator looks
        the same to a remote worker)."""
        import time

        transport = MeshTransport()
        runner = MultiprocDtmRunner(plan, shards=2, transport=transport,
                                    spawn_workers=False,
                                    ack_timeout=2.0)
        threads = [
            threading.Thread(
                target=run_worker,
                args=(transport.host, transport.port,
                      transport.token, i),
                daemon=True)
            for i in range(2)
        ]
        for t in threads:
            t.start()

        def never_converges():
            try:
                # tolerance far below reachable: runs until budget
                runner.solve(stopping=ResidualRule(tol=1e-300),
                             wall_budget=6.0)
            except Exception:
                pass  # close() racing the solve is expected here

        solver = threading.Thread(target=never_converges, daemon=True)
        solver.start()
        time.sleep(1.0)  # epoch live, workers sweeping
        runner.close()
        for t in threads:
            t.join(timeout=10.0)
        assert not any(t.is_alive() for t in threads)
        solver.join(timeout=30.0)
        assert not solver.is_alive()


class TestHandshake:
    def test_bad_token_rejected(self, plan):
        transport = MeshTransport()
        with MultiprocDtmRunner(plan, shards=2, transport=transport,
                                spawn_workers=False):
            with pytest.raises(TransportError):
                MeshWorkerPort(transport.host, transport.port,
                               "wrong-token", 0)

    def test_unknown_shard_rejected(self, plan):
        transport = MeshTransport()
        with MultiprocDtmRunner(plan, shards=2, transport=transport,
                                spawn_workers=False):
            with pytest.raises(TransportError):
                MeshWorkerPort(transport.host, transport.port,
                               transport.token, 99)

    def test_another_build_parts_at_spec_by_name(self, plan, monkeypatch):
        """A coordinator and a worker of different builds (here: a
        payload schema other than this build's) part at the SPEC frame
        with a ``ProtocolError`` naming both schemas — not with a
        ``KeyError`` on a header field one of them stopped sending."""
        from repro.plan import shard

        transport = MeshTransport()
        with monkeypatch.context() as old_build:
            old_build.setattr(shard, "PAYLOAD_SCHEMA",
                              "repro-shard-payload/1")
            runner = MultiprocDtmRunner(plan, shards=2,
                                        transport=transport,
                                        spawn_workers=False)
        with runner:
            with pytest.raises(ProtocolError,
                               match="repro-shard-payload/1.*"
                                     + shard.PAYLOAD_SCHEMA):
                MeshWorkerPort(transport.host, transport.port,
                               transport.token, 0)

    def test_peer_bad_token_rejected(self, plan):
        """A dialler without the shared token never gets to write a
        wave slot: the worker's peer listener hangs up on it."""
        transport = MeshTransport()
        with MultiprocDtmRunner(plan, shards=2, transport=transport,
                                spawn_workers=False):
            port = MeshWorkerPort(transport.host, transport.port,
                                  transport.token, 0)
            try:
                before = port.wave_snapshot()
                with socket.create_connection(
                        ("127.0.0.1", port.listen_port),
                        timeout=5.0) as intruder:
                    wire.send_message(
                        intruder, wire.T_PEER_HELLO,
                        {"token": "wrong-token", "shard": 1})
                    slots = np.arange(port.spec.slot_lo,
                                      port.spec.slot_hi)
                    try:
                        wire.send_message(
                            intruder, wire.T_WAVES, {"dst": 0},
                            {"slots": slots,
                             "values": np.full(slots.shape, 7.0)})
                    except TransportError:
                        pass  # already hung up on
                    try:
                        hung_up = intruder.recv(1) == b""
                    except ConnectionError:  # RST: unread frame pending
                        hung_up = True
                    assert hung_up
                assert np.array_equal(port.wave_snapshot(), before)
            finally:
                port.close()


class TestApiTransport:
    def test_tcp_via_solve_dtm(self):
        # the deliberate break: no alias, no shim, a pointer to "mesh"
        with pytest.raises(ConfigurationError, match="'mesh'"):
            solve_dtm(grid2d_poisson(16), n_subdomains=6, seed=2,
                      backend="multiproc", shards=2, transport="tcp",
                      stopping=ResidualRule(tol=1e-6))

    def test_transport_requires_multiproc_backend(self):
        with pytest.raises(ConfigurationError, match="multiproc"):
            solve_dtm(grid2d_poisson(6), transport="mesh")

    def test_edge_mailbox_reexport(self):
        # PR-4 import location keeps working after the net refactor
        from repro.net.transport import EdgeMailbox as NetMailbox
        from repro.runtime.multiproc import EdgeMailbox

        assert EdgeMailbox is NetMailbox
