"""The process-wide pool of booted shard workers.

A runner takes its workers from the pool and gives back every one that
shut down cleanly, so the next runner — of the same server or of a
new one in the same process — starts on processes that have paid the
interpreter boot and the worker imports already.  What must never come
back: a worker that died, raised, was armed with faults or missed the
shutdown deadline; and an idle worker maps no segment of the runner it
served, and ends when no runner takes it within its linger.
"""

import gc
import os
import signal
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

import repro
from repro.core.convergence import ResidualRule
from repro.net.faults import FaultPlan, ShardFaults
from repro.plan import build_plan
from repro.runtime import pool as pool_mod
from repro.runtime.multiproc import MultiprocDtmRunner
from repro.runtime.pool import worker_pool
from repro.runtime.server import DtmServer
from repro.workloads.poisson import grid2d_poisson

# an exception on a linger timer's thread is a pool bug, not noise
pytestmark = pytest.mark.filterwarnings(
    "error::pytest.PytestUnhandledThreadExceptionWarning"
)

TOL = 1e-8
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.fixture(scope="module")
def plan():
    return build_plan(
        grid2d_poisson(16),
        n_subdomains=4,
        grid_shape=[16, 16],
        parts_shape=[2, 2],
    )


@pytest.fixture
def patient(monkeypatch):
    """Idle workers wait a minute for their next runner, so a slow host
    cannot end them between two runners; the pool is emptied after."""
    monkeypatch.setattr(pool_mod, "IDLE_LINGER", 60.0)
    yield
    worker_pool().shutdown()


def pids_of(runner) -> list:
    return [worker.proc.pid for worker in runner._workers]


def alive(pid: int) -> bool:
    """True while *pid* exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


def eventually(check, grace: float = 5.0) -> bool:
    deadline = time.monotonic() + grace
    while not check():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.05)
    return True


def gone(pids, grace: float = 5.0) -> bool:
    return eventually(lambda: not any(alive(pid) for pid in pids), grace)


def idle_pids() -> set:
    return {worker.proc.pid for worker in worker_pool().idle}


def solve_ok(solver) -> None:
    res = solver.solve(stopping=ResidualRule(tol=TOL), wall_budget=60.0)
    assert res.converged
    assert res.relative_residual <= TOL


@pytest.mark.parametrize("transport", ["shm", "mesh"])
def test_the_next_runners_run_on_the_first_runners_workers(
    plan, transport, patient
):
    """A second runner of the plan, then the runner of a second server
    in the same process: the same pids answer, within tolerance."""
    with MultiprocDtmRunner(plan, shards=2, transport=transport) as runner:
        solve_ok(runner)
        first = set(pids_of(runner))
    assert first <= idle_pids()
    with MultiprocDtmRunner(plan, shards=2, transport=transport) as runner:
        assert set(pids_of(runner)) == first
        solve_ok(runner)
    for _ in range(2):
        with DtmServer(shards=2, transport=transport) as server:
            plan_id = server.register(plan=plan)
            res = server.solve(plan_id, stopping=ResidualRule(tol=TOL))
            assert res.converged and res.relative_residual <= TOL
            pids = set(pids_of(server.runner(plan_id)))
            assert pids == first
    assert first <= idle_pids()


@pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs a listable /dev/shm"
)
def test_an_idle_worker_maps_no_segment_of_the_runner_it_served(
    plan, patient
):
    with MultiprocDtmRunner(plan, shards=2) as runner:
        solve_ok(runner)
        pids = pids_of(runner)
        segments = set(runner.transport._names.values())
        assert segments <= set(os.listdir("/dev/shm"))
    assert set(pids) <= idle_pids()
    for pid in pids:
        with open(f"/proc/{pid}/maps") as fh:
            assert "/dev/shm/dtm" not in fh.read()
    assert not segments & set(os.listdir("/dev/shm"))


def test_a_killed_worker_is_not_returned(plan, patient):
    with MultiprocDtmRunner(plan, shards=2) as runner:
        solve_ok(runner)
        victim, survivor = (worker.proc for worker in runner._workers)
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10.0)
    assert victim.pid not in idle_pids()
    assert survivor.pid in idle_pids()


def test_a_worker_armed_with_faults_is_not_returned(plan, patient):
    """Even a fault script that never fires retires its worker."""
    faults = FaultPlan({0: ShardFaults()})
    with MultiprocDtmRunner(plan, shards=2, faults=faults) as runner:
        solve_ok(runner)
        armed, plain = (worker.proc for worker in runner._workers)
    assert gone([armed.pid])
    assert armed.pid not in idle_pids()
    assert plain.pid in idle_pids()


def test_a_stuck_worker_is_not_returned(plan):
    """A worker that misses close()'s 5 s deadline is terminated."""
    with MultiprocDtmRunner(plan, shards=2) as runner:
        solve_ok(runner)
        stuck = runner._workers[0].proc
        os.kill(stuck.pid, signal.SIGSTOP)
        try:
            start = time.perf_counter()
            runner.close()
            assert time.perf_counter() - start >= 5.0
            assert stuck.pid not in idle_pids()
        finally:
            # the SIGTERM close() sent lands once the worker runs
            os.kill(stuck.pid, signal.SIGCONT)
    stuck.join(timeout=10.0)
    assert not stuck.is_alive()


def test_the_idle_cap_holds(plan, patient, monkeypatch):
    """Workers beyond the cap are ended, not kept (the cap is lowered to
    one here: the derived one, a worker per CPU, may exceed the plan's
    four parts)."""
    pool = worker_pool()
    pool.shutdown()
    monkeypatch.setattr(pool, "cap", 1)
    with MultiprocDtmRunner(plan, shards=2) as runner:
        solve_ok(runner)
        pids = pids_of(runner)
    assert len(pool.idle) == 1
    kept = [pid for pid in pids if pid in idle_pids()]
    assert len(kept) == 1
    assert gone(set(pids) - set(kept))


def test_an_idle_worker_leaves_when_its_linger_runs_out(
    plan, monkeypatch
):
    """... and its wake semaphore goes with it: a process that has
    stopped serving keeps no booted interpreter, and no segment, for
    long."""
    monkeypatch.setattr(pool_mod, "IDLE_LINGER", 1.0)
    with MultiprocDtmRunner(plan, shards=2) as runner:
        solve_ok(runner)
        pids = pids_of(runner)
        wakes = {
            "sem." + worker.wake._semlock.name.lstrip("/")
            for worker in runner._workers
        }
    assert set(pids) <= idle_pids()
    assert gone(pids)
    assert not set(pids) & idle_pids()
    if os.path.isdir("/dev/shm"):
        assert eventually(lambda: not wakes & set(os.listdir("/dev/shm")))


@pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="needs a listable /dev/shm"
)
@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
def test_a_retired_workers_wake_name_is_gone_before_it_is_told_to_end(
    plan, patient, monkeypatch
):
    """A leak check may list ``/dev/shm`` the moment the worker is
    reaped: its wake semaphore's name must be unlinked before the
    worker is told to end, and the semaphore's finalizer must not
    unlink it a second time."""
    with MultiprocDtmRunner(plan, shards=2) as runner:
        solve_ok(runner)
    worker = worker_pool().take()  # booted: it has opened its semaphore
    name = "/dev/shm/sem." + worker.wake._semlock.name.lstrip("/")
    assert os.path.exists(name)
    seen = []
    send, join = worker.conn.send, worker.proc.join

    def spy(step, call):
        def wrapped(*args, **kwargs):
            seen.append((step, os.path.exists(name)))
            return call(*args, **kwargs)

        return wrapped

    monkeypatch.setattr(worker.conn, "send", spy("send", send))
    monkeypatch.setattr(worker.proc, "join", spy("join", join))
    worker.retire(time.perf_counter() + 5.0)
    assert seen == [("send", False), ("join", False)]
    assert not worker.proc.is_alive()
    del worker
    gc.collect()


def test_a_worker_taken_again_is_not_ended_by_its_old_linger(
    plan, monkeypatch
):
    """Taking a worker stops its linger: a runner that outlives it
    keeps its workers."""
    monkeypatch.setattr(pool_mod, "IDLE_LINGER", 1.0)
    with MultiprocDtmRunner(plan, shards=2) as runner:
        solve_ok(runner)
        first = pids_of(runner)
    with MultiprocDtmRunner(plan, shards=2) as runner:
        assert set(pids_of(runner)) == set(first)
        time.sleep(1.5)
        assert all(alive(pid) for pid in first)
        solve_ok(runner)
    assert gone(first)


def test_a_fresh_interpreter_leaves_no_child_process():
    """Serve, close, exit: the idle workers leave with the process."""
    code = textwrap.dedent(
        """
        import multiprocessing
        from multiprocessing import resource_tracker

        from repro.core.convergence import ResidualRule
        from repro.plan import build_plan
        from repro.runtime.server import DtmServer
        from repro.workloads.poisson import grid2d_poisson

        if __name__ == "__main__":
            plan = build_plan(grid2d_poisson(12), n_subdomains=4,
                              grid_shape=[12, 12], parts_shape=[2, 2])
            with DtmServer(shards=2) as server:
                plan_id = server.register(plan=plan)
                res = server.solve(plan_id, stopping=ResidualRule(tol=1e-8))
                assert res.converged
            children = [p.pid for p in multiprocessing.active_children()]
            assert children  # the idle workers
            children.append(resource_tracker._resource_tracker._pid)
            print(" ".join(map(str, children)))
        """
    )
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + inherited if inherited else "")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    children = [int(pid) for pid in proc.stdout.split()]
    assert gone(children), [pid for pid in children if alive(pid)]


def test_one_pool_per_process_started_by_spawn():
    assert worker_pool() is worker_pool()
    assert pool_mod.START_METHOD == "spawn"
    assert worker_pool()._ctx.get_start_method() == "spawn"


def test_a_forked_child_starts_with_a_pool_of_its_own():
    """The parent's idle workers are not a forked child's to take."""
    code = textwrap.dedent(
        """
        import os

        from repro.runtime.pool import worker_pool

        parent = worker_pool()
        parent._idle.append("a worker of the parent's")
        pid = os.fork()
        if pid == 0:
            child = worker_pool()
            ok = child is not parent and child.idle == []
            os._exit(0 if ok and worker_pool() is child else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert worker_pool() is parent
        parent._idle.clear()
        """
    )
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + inherited if inherited else "")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_the_wake_semaphore_is_the_workers_own(plan, patient):
    """Each pooled worker was born with its semaphore, and the shm
    fabric posts that one: a reused worker's epochs wake it, so its
    solves do not wait out the idle loop's quarter-second patience."""
    b = np.random.default_rng(7).standard_normal(plan.n)
    for _ in range(2):
        with MultiprocDtmRunner(plan, shards=2) as runner:
            for i, worker in enumerate(runner._workers):
                assert runner.transport._wake[i] is worker.wake
            res = runner.solve(b, stopping=ResidualRule(tol=TOL))
            assert res.converged and res.relative_residual <= TOL
            start = time.perf_counter()
            for _ in range(3):
                runner.solve(b, stopping=ResidualRule(tol=TOL))
            assert (time.perf_counter() - start) / 3 < 0.1
