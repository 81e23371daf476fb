"""The serving front end and client (ISSUE 5, net/frontend + client).

A real socket round trip end to end: register a system over the wire,
solve against the warm server pool, match the in-process result, and
exercise the hardened serve loop *over TCP* — bad requests come back
as error responses and the connection keeps serving.
"""

import faulthandler
import gc
import socket
import threading
import weakref

import numpy as np
import pytest

from repro.api import ResidualRule, connect_dtm
from repro.core.convergence import relative_residual
from repro.errors import ConfigurationError, RemoteError
from repro.net import DtmClient, DtmTcpFrontend
from repro.plan import SolverPlan, build_plan
from repro.plan.artifact import artifact_plan_hash
from repro.runtime import DtmServer
from repro.runtime.server import plan_hash
from repro.workloads.poisson import grid2d_poisson

faulthandler.enable()

TOL = 1e-7
GRID = 24


@pytest.fixture(scope="module")
def graph():
    return grid2d_poisson(GRID)


@pytest.fixture(scope="module")
def service(graph):
    """A live server + frontend + connected client, shared."""
    with DtmServer(shards=2) as server:
        with DtmTcpFrontend(server) as frontend:
            with DtmClient(frontend.address) as client:
                plan_id = client.register(graph, n_subdomains=4, seed=1)
                yield server, frontend, client, plan_id


class TestRoundTrip:
    def test_ping(self, service):
        _, _, client, _ = service
        assert client.ping()

    def test_register_is_content_keyed_across_the_wire(self, service,
                                                       graph):
        server, _, client, plan_id = service
        # registering the same graph in-process lands on the same id:
        # the client's CSR round trip is content-true
        assert server.register(graph, n_subdomains=4, seed=1) == plan_id
        assert client.register(graph, n_subdomains=4, seed=1) == plan_id

    def test_solve_matches_in_process_server(self, service, graph):
        server, _, client, plan_id = service
        rng = np.random.default_rng(3)
        b = rng.standard_normal(graph.n)
        remote = client.solve(plan_id, b, tol=TOL,
                              stopping=ResidualRule(tol=TOL))
        local = server.solve(plan_id, b, stopping=ResidualRule(tol=TOL))
        assert remote.converged and local.converged
        a_mat = server.store.get(plan_id).a_mat
        assert relative_residual(a_mat, remote.x, b) <= TOL
        assert np.max(np.abs(remote.x - local.x)) < 1e-5
        assert np.isnan(remote.rms_error)
        assert remote.stopped_by == "residual"
        assert remote.plan_solves >= 1

    def test_default_stopping_is_residual(self, service, graph):
        _, _, client, plan_id = service
        b = np.ones(graph.n)
        res = client.solve(plan_id, b, tol=1e-6)
        assert res.converged
        assert res.stopped_by == "residual"
        assert res.relative_residual <= 1e-6

    def test_solve_many_columns(self, service, graph):
        server, _, client, plan_id = service
        rng = np.random.default_rng(5)
        B = rng.standard_normal((graph.n, 3))
        results = client.solve_many(plan_id, B, tol=1e-6)
        assert len(results) == 3
        a_mat = server.store.get(plan_id).a_mat
        for j, res in enumerate(results):
            assert res.converged
            assert relative_residual(a_mat, res.x, B[:, j]) <= 1e-6

    def test_solve_many_needs_2d(self, service):
        _, _, client, plan_id = service
        with pytest.raises(ConfigurationError):
            client.solve_many(plan_id, np.zeros(5))

    def test_metrics(self, service):
        _, _, client, _ = service
        snap = client.metrics()
        assert snap.total("repro_server_solves_total") >= 1
        assert snap.value("repro_plan_store_plans") >= 1


class TestHardenedLoopOverTcp:
    def test_unknown_plan_is_error_response_not_dead_loop(self, service,
                                                          graph):
        _, _, client, plan_id = service
        b = np.ones(graph.n)
        with pytest.raises(RemoteError, match="KeyError"):
            client.solve("deadbeef", b)
        # the same connection keeps serving after the error
        res = client.solve(plan_id, b, tol=1e-6)
        assert res.converged

    def test_malformed_rhs_is_error_response(self, service, graph):
        _, _, client, plan_id = service
        with pytest.raises(RemoteError, match="ValidationError"):
            client.solve(plan_id, np.ones(graph.n - 3))
        res = client.solve(plan_id, np.ones(graph.n), tol=1e-6)
        assert res.converged

    def test_bad_stopping_spec_is_error_response(self, service, graph):
        _, _, client, plan_id = service
        with pytest.raises(RemoteError):
            client.solve(plan_id, np.ones(graph.n),
                         stopping={"rule": "psychic"})

    def test_unknown_op_is_error_response(self, service):
        _, _, client, _ = service
        obj, _, _ = client._request({"op": "levitate"})
        assert not obj["ok"]
        assert "unknown op" in obj["error"]
        assert client.ping()  # connection still alive

    def test_stats_op_is_gone(self, service, graph):
        # the counters moved to the ``metrics`` op; ``stats`` is an
        # unknown op like any other, and the connection lives on
        _, _, client, plan_id = service
        obj, _, _ = client._request({"op": "stats"})
        assert not obj["ok"]
        assert obj["error"] == "ProtocolError: unknown op 'stats'"
        assert client.solve(plan_id, np.ones(graph.n), tol=1e-6).converged

    def test_register_error_is_reported(self, service):
        _, _, client, _ = service
        # a non-symmetric matrix cannot have an electric graph
        bad = np.array([[2.0, 1.0], [0.0, 2.0]])
        with pytest.raises(RemoteError):
            client.register(bad, np.ones(2))

    def test_register_with_a_retired_knob_names_it(self, service, graph):
        # an old client still sending numerics= or build_workers= gets
        # an error response naming the key, even though this system's
        # plan is cached server-side, and the server keeps serving
        _, _, client, plan_id = service
        for knob, value in (("numerics", "sparse"), ("build_workers", 2)):
            with pytest.raises(RemoteError, match=knob):
                client.register(graph, n_subdomains=4, seed=1,
                                **{knob: value})
        assert client.ping()
        assert client.register(graph, n_subdomains=4, seed=1) == plan_id
        assert client.solve(plan_id, np.ones(graph.n), tol=1e-6).converged


class TestPlanTransfer:
    def test_push_then_solve_then_fetch_round_trip(self, service, graph):
        server, _, client, _ = service
        plan = build_plan(graph, n_subdomains=4, seed=2)
        pid = client.push_plan(plan)
        assert pid == plan_hash(plan)
        # the pushed plan is live server-side: solve against it
        b = np.ones(graph.n)
        remote = client.solve(pid, b, tol=1e-6)
        assert remote.converged
        assert relative_residual(plan.a_mat, remote.x, b) <= 1e-6
        # and it comes back as a runnable local plan whose solve is
        # bitwise-identical to the original's
        fetched = client.fetch_plan(pid)
        stop = ResidualRule(tol=1e-6)
        x_fetched = fetched.session().solve(b, stopping=stop).x
        x_original = plan.session().solve(b, stopping=stop).x
        assert np.array_equal(x_fetched, x_original)

    def test_fetch_as_bytes_is_a_valid_artifact(self, service, graph):
        _, _, client, _ = service
        plan = build_plan(graph, n_subdomains=4, seed=3)
        pid = client.push_plan(plan)
        data = client.fetch_plan(pid, as_bytes=True)
        assert isinstance(data, (bytes, bytearray))
        assert artifact_plan_hash(data) == pid

    def test_push_accepts_raw_artifact_bytes(self, service, graph):
        _, _, client, _ = service
        from repro.plan import plan_to_bytes

        plan = build_plan(graph, n_subdomains=4, seed=4)
        pid = client.push_plan(plan_to_bytes(plan))
        assert pid == plan_hash(plan)
        assert client.solve(pid, np.ones(graph.n), tol=1e-6).converged

    def test_fetch_unknown_plan_is_remote_error(self, service):
        _, _, client, plan_id = service
        with pytest.raises(RemoteError, match="KeyError"):
            client.fetch_plan("deadbeef")
        # the connection keeps serving after the error
        assert client.ping()

    def test_push_without_blob_is_error_response(self, service):
        _, _, client, _ = service
        obj, _, _ = client._request({"op": "push_plan"})
        assert not obj["ok"]
        assert "PlanArtifactError" in obj["error"]
        assert client.ping()


class TestAuth:
    def test_token_required_and_checked(self, graph):
        with DtmServer(shards=1) as server:
            with DtmTcpFrontend(server, token="hunter2") as frontend:
                with DtmClient(frontend.address) as anon:
                    with pytest.raises(RemoteError, match="AuthError"):
                        anon.ping()
                with connect_dtm(frontend.address,
                                 token="hunter2") as client:
                    assert client.ping()
                    plan_id = client.register(graph, n_subdomains=4)
                    res = client.solve(plan_id, np.ones(graph.n),
                                       tol=1e-6)
                    assert res.converged


class TestShutdown:
    def test_remote_shutdown_closes_server(self, graph):
        server = DtmServer(shards=1)
        frontend = DtmTcpFrontend(server).start()
        with DtmClient(frontend.address) as client:
            plan_id = client.register(graph, n_subdomains=4)
            assert client.solve(plan_id, np.ones(graph.n),
                                tol=1e-6).converged
            client.shutdown()
        assert server._closed
        with pytest.raises(ConfigurationError):
            server.solve(plan_id, np.ones(graph.n))

    def test_closed_client_rejects(self, graph):
        server = DtmServer(shards=1)
        with DtmTcpFrontend(server) as frontend:
            client = DtmClient(frontend.address)
            client.close()
            with pytest.raises(ConfigurationError):
                client.ping()
        server.close()


def _accept_threads():
    return [t for t in threading.enumerate() if t.name == "dtm-frontend"]


def _conn_threads():
    return [t for t in threading.enumerate()
            if t.name == "dtm-frontend-conn"]


def _live_plans():
    gc.collect()
    return sum(isinstance(o, SolverPlan) for o in gc.get_objects())


class TestClose:
    """ROADMAP 5d: closing a listening socket does not wake a thread
    blocked in ``accept()`` on it, so a "closed" front end kept its
    thread, its kernel socket (clients were queued, not refused) and —
    through the thread — server, store and plans, once per restart."""

    def test_close_ends_the_accept_thread_and_frees_the_server(self):
        before = len(_accept_threads())
        handlers_before = set(_conn_threads())
        server = DtmServer(shards=1)
        frontend = DtmTcpFrontend(server).start()
        address = frontend.address
        assert len(_accept_threads()) == before + 1
        with DtmClient(address) as client:
            assert client.ping()
        ref = weakref.ref(server)
        frontend.close()
        server.close()
        assert len(_accept_threads()) == before
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(address, timeout=5.0)
        frontend.close()  # closing twice is fine
        del server, frontend
        # the connection's handler thread holds the server until it
        # sees the client's hang-up: wait for it instead of racing it
        for t in set(_conn_threads()) - handlers_before:
            t.join(5.0)
            assert not t.is_alive()
        gc.collect()
        assert ref() is None

    def test_in_place_restarts_take_their_plans_along(self, tmp_path):
        """Eight stacks, one after the other, over one ``plan_dir``
        (what ``cold_restart`` does): each loads the plan from disk,
        and each must take it along when it goes."""
        before = len(_accept_threads())
        handlers_before = set(_conn_threads())
        graph = grid2d_poisson(8)
        b = np.ones(graph.n)
        plan_id = None
        counts = []
        for restart in range(8):
            with DtmServer(shards=1, plan_dir=tmp_path) as server:
                with DtmTcpFrontend(server) as frontend:
                    with DtmClient(frontend.address) as client:
                        if plan_id is None:
                            plan_id = client.register(
                                graph, n_subdomains=2, seed=7)
                        res = client.solve(plan_id, b, tol=1e-6)
                        assert res.converged
                # the first stack built its plan (the process-wide plan
                # cache keeps that one); every later one loaded its own
                assert server.store.metrics_snapshot().total(
                    "repro_plan_store_disk_loads_total") == (restart > 0)
            del server, frontend, client, res
            # a connection's handler thread (which holds the front end,
            # and through it server, store and plan) ends on its own
            # once the client has hung up: wait for that instead of
            # racing it
            for t in set(_conn_threads()) - handlers_before:
                t.join(5.0)
                assert not t.is_alive()
            counts.append(_live_plans())
        assert counts[1:] == counts[:1] * 7, counts
        assert len(_accept_threads()) == before


class TestClientDeadline:
    """ISSUE 8 regression: a coordinator that dies mid-solve must not
    hang the client forever — the configurable deadline surfaces it as
    :class:`RemoteError` and closes the (now unusable) connection."""

    @pytest.fixture()
    def silent_server(self):
        """Accepts connections, then never responds (a dead solve)."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(4)
        held = []

        def accept_loop():
            while True:
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                held.append(conn)  # keep it open, say nothing

        t = threading.Thread(target=accept_loop, daemon=True)
        t.start()
        try:
            yield listener.getsockname()
        finally:
            listener.shutdown(socket.SHUT_RDWR)  # close() wakes no accept()
            listener.close()
            for conn in held:
                conn.close()
            t.join(timeout=5.0)
            assert not t.is_alive()

    def test_client_timeout_raises_remote_error(self, silent_server):
        client = DtmClient(silent_server, timeout=0.5)
        with pytest.raises(RemoteError, match="no response"):
            client.ping()
        # the half-dead connection was closed, not left to desync
        with pytest.raises(ConfigurationError):
            client.ping()

    def test_per_solve_deadline_override(self, silent_server):
        import time

        client = DtmClient(silent_server, timeout=300.0)
        t0 = time.monotonic()
        with pytest.raises(RemoteError, match="died mid-solve"):
            client.solve("some-plan", np.ones(4), deadline=0.5)
        assert time.monotonic() - t0 < 10.0
        client.close()
