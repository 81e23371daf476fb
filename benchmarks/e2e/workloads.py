"""The five workloads and the untraced end-to-end measurement.

Load model, all workloads: closed loop, one client, one connection,
``warm_start=False``, ``ResidualRule(tol=1e-6)``, two shards.  A run
sets the system up once from nothing (a fresh server-host process for
the served workloads), warms it, and then times either ``--seconds`` of
served solves or a fixed number of the workload's ~1 s operations.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

import harness
from harness import Csr, HostProcess

TOL = 1e-6

#: discarded solves after the first (which spawns the workers)
WARMUPS = 5

#: the paper's seed: fixes the §7 grid's conductances and link delays
PAPER_SEED = 2008
PAPER_UNKNOWNS = 4225
PAPER_PROCS = 16
#: horizon of the paper's Fig 12 runs; also sets the stopping rule's
#: sampling period (t_max / 256 simulated ms)
PAPER_T_MAX = 6000.0


def counted_ops(seconds: float) -> int:
    """``cold_restart`` and ``sim_paper`` time a fixed number of their
    ~1 s operations, one per second of ``--seconds`` (18 at
    BENCHMARK.json's ``run_seconds``): two runs do the same work, and a
    faster program is not handed a longer, fatter run."""
    return max(1, int(seconds))


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "stream" | "cold" | "sim"
    nx: int
    parts: int  # subdomains per grid side
    transport: str = "shm"

    @property
    def plan_kwargs(self) -> dict:
        return {"n_subdomains": self.parts * self.parts,
                "grid_shape": [self.nx, self.nx],
                "parts_shape": [self.parts, self.parts]}


#: why each workload exists is in BENCHMARK.json and README.md
WORKLOADS = {w.name: w for w in (
    Workload("stream_small_shm", kind="stream", nx=100, parts=4),
    Workload("stream_small_mesh", kind="stream", nx=100, parts=4,
             transport="mesh"),
    Workload("stream_large_shm", kind="stream", nx=240, parts=6),
    Workload("cold_restart", kind="cold", nx=100, parts=4),
    Workload("sim_paper", kind="sim", nx=65, parts=4),
)}


@dataclass
class Tally:
    """What one run accumulates."""

    times: list = field(default_factory=list)  # correct ops only, s
    busy: float = 0.0  # every timed interval, failed ones included
    attempted: int = 0
    failed: int = 0
    notes: list = field(default_factory=list)

    def record(self, seconds: float, ok: bool) -> None:
        self.attempted += 1
        self.busy += seconds
        if ok:
            self.times.append(seconds)
        else:
            self.failed += 1

    def fail(self, note: str) -> None:
        """A hygiene breach: counted like a failed operation."""
        self.attempted += 1
        self.failed += 1
        self.notes.append(note)


# ----------------------------------------------------------------------
# served workloads
# ----------------------------------------------------------------------
def as_matrix(a: Csr):
    """The program's matrix type over the benchmark's arrays."""
    from repro.linalg.sparse import CsrMatrix

    return CsrMatrix(a.data, a.indices, a.indptr, (a.n, a.n))


def _solve(client, plan_id, b):
    from repro.core.convergence import ResidualRule

    return client.solve(plan_id, b, tol=TOL,
                        stopping=ResidualRule(tol=TOL), warm_start=False)


def _timed(tally: Tally, a: Csr, b, operation) -> None:
    """Clock ``operation()`` (it returns a solve result), then check
    the answer off the clock.  A server-reported error is a failed
    operation; anything else is a broken run and propagates."""
    from repro.errors import RemoteError

    t0 = time.perf_counter()
    try:
        res = operation()
    except RemoteError:
        res = None
    elapsed = time.perf_counter() - t0
    tally.record(elapsed, res is not None
                 and harness.residual_ok(a, res.x, b, res.converged))


def served_setup(spec: Workload, a: Csr, pool: np.ndarray,
                 plan_dir: Optional[str] = None):
    """Launch a host, register the system, spawn and warm its workers.

    Returns ``(host, client, plan_id)``; the caller owns both handles.
    Warm-up answers are checked too: a system that cannot produce a
    correct answer here has nothing worth timing.
    """
    from repro.net.client import DtmClient

    host = HostProcess(spec.transport, plan_dir)
    try:
        client = DtmClient(host.address)
        plan_id = client.register(as_matrix(a), pool[0],
                                  **spec.plan_kwargs)
        for i in range(1 + WARMUPS):
            res = _solve(client, plan_id, pool[i])
            if not harness.residual_ok(a, res.x, pool[i], res.converged):
                raise RuntimeError(
                    f"{spec.name}: warm-up solve {i} failed its check")
    except BaseException:
        host.stop()
        raise
    return host, client, plan_id


def check_leftovers(tally: Tally, pids, segments) -> None:
    """The run's own processes and shared-memory segments must be gone
    after teardown: a leftover counts as a failure, not as noise in the
    next workload.  Other users' segments on the host are not ours to
    judge."""
    alive = harness.lingering(sorted(pids))
    if alive:
        tally.fail(f"processes outlived their teardown: {alive}")
    leaked = set(segments) & harness.shm_segments()
    if leaked:
        tally.fail(f"/dev/shm segments leaked: {sorted(leaked)}")


def _served_run(spec: Workload, seed: int, seconds: float,
                started: float, tally: Tally) -> tuple:
    """Set up, time, tear down; returns ``(setup_s, peak_rss_mb)``."""
    from repro.net.client import DtmClient

    cold = spec.kind == "cold"
    plan_dir = host = None
    if cold:
        os.makedirs(harness.OUT_DIR, exist_ok=True)
        plan_dir = tempfile.mkdtemp(prefix="plans-", dir=harness.OUT_DIR)
    try:
        a = harness.poisson_csr(spec.nx)
        pool = harness.rhs_pool(seed, a.n)
        host, client, plan_id = served_setup(spec, a, pool, plan_dir)
        setup_s = time.perf_counter() - started
        connections = [client]

        def warm_solve():
            return _solve(connections[-1], plan_id, b)

        def restart_and_solve():
            # the clock runs from the start request until this client
            # has connected and holds its first answer for the known id
            host.restart()
            connections.append(DtmClient(host.address))
            return warm_solve()

        if cold:
            for i in range(counted_ops(seconds)):
                b = pool[i % len(pool)]
                connections.pop().close()
                host.command("close")  # untimed: the old stack goes away
                _timed(tally, a, b, restart_and_solve)
                host.observe()  # every stack's workers and segments
        else:
            deadline = time.perf_counter() + seconds
            i = 0
            while time.perf_counter() < deadline:
                b = pool[i % len(pool)]
                i += 1
                _timed(tally, a, b, warm_solve)
        rss = host.peak_rss_mib()
        connections.pop().close()
    finally:
        if host is not None:
            host.stop()
            check_leftovers(tally, host.pids, host.segments)
        if plan_dir is not None:
            shutil.rmtree(plan_dir, ignore_errors=True)
    return setup_s, rss


# ----------------------------------------------------------------------
# the simulator workload
# ----------------------------------------------------------------------
def paper_system(seed: int):
    """The section-7 system: ``(plan, a, pool)``.

    Grid conductances, ground leaks and link delays are the paper
    seed's, and the plan is built the way ``run_paper_dtm`` builds it;
    *seed* draws the right-hand sides.  *a* is this benchmark's own CSR
    triple of the same matrix.
    """
    from repro.experiments.common import default_impedance, paper_split_for
    from repro.plan import get_plan
    from repro.sim.network import paper_fig11_topology

    split = paper_split_for(PAPER_UNKNOWNS, PAPER_PROCS, PAPER_SEED)
    plan = get_plan(split=split,
                    topology=paper_fig11_topology(PAPER_SEED),
                    impedance=default_impedance())
    mat = plan.a_mat
    a = Csr(np.asarray(mat.data, dtype=np.float64),
            np.asarray(mat.indices, dtype=np.int64),
            np.asarray(mat.indptr, dtype=np.int64))
    return plan, a, harness.rhs_pool(seed, a.n)


def paper_run(plan, b):
    """One section-7 run for right-hand side *b*: a new simulator over
    the plan, run to the reference rule's tolerance with the experiment
    defaults (``run_paper_dtm``'s, plus the right-hand-side swap)."""
    from repro.sim.executor import DtmSimulator

    sim = DtmSimulator(plan=plan, min_solve_interval=5.0)
    sim.swap_rhs(b)
    return sim.run(PAPER_T_MAX, tol=TOL)


def sim_ok(a: Csr, res, b) -> bool:
    """The reference rule promises an RMS error, so that is checked —
    against the benchmark's own CG solution."""
    return bool(res.converged) and harness.rms_error(
        res.x, harness.cg_reference(a, b)) <= harness.CHECK_LIMIT


def _sim_run(spec: Workload, seed: int, seconds: float,
             started: float, tally: Tally) -> tuple:
    """Set up and time in this process; ``(setup_s, peak_rss_mb)``."""
    plan, a, pool = paper_system(seed)
    # two warm-ups, not 1 + 5: the simulator is deterministic and
    # in-process, more would only repeat the same second
    warm = [(paper_run(plan, pool[i]), pool[i]) for i in range(2)]
    setup_s = time.perf_counter() - started
    if not all(sim_ok(a, res, b) for res, b in warm):
        raise RuntimeError(f"{spec.name}: a warm-up run failed its check")
    for i in range(counted_ops(seconds)):
        b = pool[i % len(pool)]
        t1 = time.perf_counter()
        res = paper_run(plan, b)
        elapsed = time.perf_counter() - t1
        tally.record(elapsed, sim_ok(a, res, b))
    return setup_s, harness.vm_hwm_mib("self")


# ----------------------------------------------------------------------
# one untraced run
# ----------------------------------------------------------------------
def end_to_end_metrics(tally: Tally, setup_s: float, rss: float) -> dict:
    """The six end-to-end metrics of one run.  ``solve_ms_p90`` is
    ``None`` — omitted, not filled — when the run has too few samples
    for the percentile rule to allow a 90th percentile."""
    ms = [t * 1e3 for t in tally.times]
    p90_allowed = harness.highest_percentile(len(ms)) >= 90
    return {
        "solve_ms_p50": harness.percentile(ms, 50),
        "solve_ms_p90": harness.percentile(ms, 90) if p90_allowed else None,
        "solves_per_s": len(ms) / tally.busy,
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "failed_frac": tally.failed / tally.attempted,
    }


def measure(spec: Workload, seed: int, seconds: float,
            started: float) -> tuple:
    """Run *spec* untraced; returns ``(tally, metrics, detail)``.
    *started* is the ``perf_counter`` reading at process launch, from
    which ``setup_s`` counts."""
    tally = Tally()
    run = _sim_run if spec.kind == "sim" else _served_run
    setup_s, rss = run(spec, seed, seconds, started, tally)
    if not tally.times:
        raise RuntimeError(f"{spec.name}: no timed operation succeeded")
    ms = [t * 1e3 for t in tally.times]
    detail = {
        "workload": spec.name,
        "samples": harness.summarize(ms),
        "rule_percentile": harness.highest_percentile(len(ms)),
        "bases": {"solves_per_s":
                  f"{len(ms)} correct / {tally.busy:.3f} s timed",
                  "failed_frac":
                  f"{tally.failed} failed / {tally.attempted} attempted"},
        "notes": tally.notes,
    }
    return tally, end_to_end_metrics(tally, setup_s, rss), detail
