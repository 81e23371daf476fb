"""The traced pass: where one served solve's wall clock goes.

No span lives inside the program yet, so the ledger is taken from
outside: the same right-hand-side sequence is sent down a ladder of
public entry points, one rung per layer —

    client   ``DtmClient.solve``           against a server-host process
    server   ``DtmServer.solve``           in this process
    runner   ``MultiprocDtmRunner.solve``  in this process

— and a layer's self time is the difference between the medians of
adjacent rungs.  Below the runner the ``SolveResult`` itself splits the
wall clock (``sim_time`` is the stop loop), and the remaining layers are
timed by calling their public functions alone.  Every call is one
in-memory span; they are written as JSONL under ``out/`` when the pass
ends.  Counts are fixed (not ``--seconds``), so two passes do the same
work.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Optional

import harness
import workloads
from harness import SHARDS
from workloads import TOL, Tally, Workload

#: solves per rung, after 1 + RUNG_WARMUPS discarded ones; sized so a
#: rung takes 2-4 s at the workload's solve time
RUNG_SOLVES = {"stream_small_shm": 100, "stream_small_mesh": 60,
               "stream_large_shm": 14, "cold_restart": 100,
               "sim_paper": 100}
RUNG_WARMUPS = 3
#: traced repeats of the workload's own operation where that is not a
#: warm solve (a restart cycle, a simulator run)
OWN_OPS = 4
PINGS = 200
#: solves on the obs-enabled mesh runner that counts wave frames
FRAME_SOLVES = 10
STANDALONE_REPEATS = 9

#: the end-to-end metric each per-layer metric should move (None: a
#: reference line or a check of the ledger itself); BENCHMARK.json's
#: ``per_layer`` entries have no field for it, README.md has the
#: workloads it should and should not move on
MOVES = {
    "net.client.solve_ms_p50": None,
    "net.solve_overhead_ms": "solve_ms_p50",
    "net.ping_rtt_us": "solve_ms_p50",
    "net.wire.encode_us": "solve_ms_p50",
    "net.wire.decode_us": "solve_ms_p50",
    "net.wire.bytes_per_solve": "solve_ms_p50",
    "net.mesh.frames_per_solve": "solve_ms_p50",
    "net.mesh.fallback_frames": "solve_ms_p50",
    "net.mesh.stop_loop_vs_shm": "solve_ms_p50",
    "runtime.server.solve_overhead_ms": "solve_ms_p50",
    "runtime.server.register_ms": "setup_s, solve_ms_p50 on cold_restart",
    "runtime.server.disk_load_ms": "setup_s, solve_ms_p50 on cold_restart",
    "runtime.server.close_ms": "setup_s, solve_ms_p50 on cold_restart",
    "runtime.multiproc.start_ms": "solve_ms_p50 on cold_restart, setup_s",
    "runtime.multiproc.solve_ms_p50": "solve_ms_p50, solves_per_s",
    "runtime.multiproc.stop_loop_ms_p50": "solve_ms_p50, solve_ms_p90",
    "runtime.multiproc.polls_p50": "solve_ms_p50, solve_ms_p90",
    "runtime.multiproc.prepost_ms_p50": "solve_ms_p50",
    "runtime.multiproc.unattributed_ms": "solve_ms_p50",
    "runtime.multiproc.sweeps_per_solve_p50": "solve_ms_p50",
    "runtime.multiproc.sweep_skew_p50": "solve_ms_p50",
    "runtime.multiproc.sweep_efficiency": "solve_ms_p50",
    "core.vtm.sweeps_to_tol": "solve_ms_p50",
    "core.vtm.solve_ms": "solve_ms_p50",
    "core.vtm.sweep_us_per_subdomain": "solve_ms_p50",
    "core.convergence.residual_check_us": "solve_ms_p50",
    "plan.build_ms": "setup_s",
    "plan.rhs_swap_ms_p50": "solve_ms_p50",
    "plan.extract_shards_ms": "solve_ms_p50 on cold_restart, setup_s",
    "plan.shard_payload_bytes": "solve_ms_p50 on cold_restart, setup_s",
    "plan.artifact.save_ms": "solve_ms_p50 on cold_restart, peak_rss_mb",
    "plan.artifact.load_mmap_ms": "solve_ms_p50 on cold_restart, peak_rss_mb",
    "plan.artifact.bytes": "solve_ms_p50 on cold_restart, peak_rss_mb",
    "linalg.cg_solve_ms": None,
    "linalg.cg_iterations": None,
    "sim.events_per_s": "solve_ms_p50, solves_per_s",
    "sim.messages": "solve_ms_p50, solves_per_s",
    "sim.solves": "solve_ms_p50, solves_per_s",
    "sim.t_end_ms": "solve_ms_p50, solves_per_s",
    "trace.overhead_frac": None,
    "trace.ledger_sum_frac": None,
    "failed_frac": None,
}


@dataclass
class Span:
    name: str
    workload: str
    rung: str
    request: int
    parent: Optional[str]
    start: float
    end: float
    counts: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Recorder:
    """Spans in memory; JSONL on disk when the pass ends."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list = []

    @contextmanager
    def span(self, name: str, rung: str, request: int = 0,
             parent: Optional[str] = None):
        record = Span(name, self.workload, rung, request, parent,
                      time.perf_counter(), 0.0)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self.spans.append(record)

    def named(self, name: str) -> list:
        return [s for s in self.spans if s.name == name]

    def p50(self, name: str) -> float:
        return statistics.median(s.ms for s in self.named(name))

    def write(self, seed: int) -> str:
        os.makedirs(harness.OUT_DIR, exist_ok=True)
        path = os.path.join(
            harness.OUT_DIR, f"trace-{self.workload}-seed{seed}.jsonl")
        with open(path, "w") as fh:
            for record in self.spans:
                fh.write(json.dumps(asdict(record)) + "\n")
        return path


def _median_ms(fn, repeats: int = STANDALONE_REPEATS) -> float:
    """Median wall time of ``fn()`` in ms (for cheap standalone calls)."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def _rule():
    from repro.core.convergence import ResidualRule

    return ResidualRule(tol=TOL)


@contextmanager
def _scratch_dir(prefix: str):
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    path = tempfile.mkdtemp(prefix=prefix, dir=harness.OUT_DIR)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


class Pass:
    """One traced pass: the recorder, the tally and the inputs."""

    def __init__(self, spec: Workload, seed: int) -> None:
        self.spec = spec
        self.rec = Recorder(spec.name)
        self.tally = Tally()
        self.metrics: dict = {}
        self.bases: dict = {}
        #: bare-clocked client median, set by the ladder's client rung
        self.untraced_ms: Optional[float] = None
        #: workers and segments of the in-process rungs, noted while up
        self.own_pids: set = set()
        self.own_segments: set = set()
        if spec.kind == "sim":
            # the ladder serves the paper's matrix with default
            # impedances: the simulator's own plan cannot cross the wire
            self.sim_plan, self.a, self.pool = \
                workloads.paper_system(seed)
        else:
            self.a = harness.poisson_csr(spec.nx)
            self.pool = harness.rhs_pool(seed, self.a.n)
        self.n = RUNG_SOLVES[spec.name]

    def observe_own(self) -> None:
        pids = [os.getpid()] + [
            p.pid for p in multiprocessing.active_children()]
        self.own_pids.update(pids[1:])
        self.own_segments.update(harness.shm_mapped(pids))

    def check(self, span: Span, res, b) -> None:
        self.tally.record(span.end - span.start, harness.residual_ok(
            self.a, res.x, b, res.converged))

    # -- the three stacks ----------------------------------------------
    @contextmanager
    def client_stack(self):
        """Rung 1's far end: a warmed server host, as the end-to-end run
        uses it.  Yields ``(host, connections, plan_id)``; the last
        entry of *connections* is the live client."""
        with _scratch_dir("plans-") as scratch:
            host, client, plan_id = workloads.served_setup(
                self.spec, self.a, self.pool,
                scratch if self.spec.kind == "cold" else None)
            connections = [client]
            try:
                yield host, connections, plan_id
            finally:
                connections[-1].close()
                host.stop()
                workloads.check_leftovers(self.tally, host.pids,
                                          host.segments)

    @contextmanager
    def server_stack(self, plan):
        """Rung 2: a warmed in-process ``DtmServer`` over a ``plan_dir``;
        registration, close and the disk load are spans of their own."""
        from repro.runtime.server import DtmServer, PlanStore

        m, rec, pool = self.metrics, self.rec, self.pool
        with _scratch_dir("plans-") as plan_dir:
            server = DtmServer(shards=SHARDS, plan_dir=plan_dir,
                               transport=self.spec.transport)
            try:
                with rec.span("runtime.server.register", "server") as sp:
                    plan_id = server.register(plan=plan)
                m["runtime.server.register_ms"] = sp.ms
                for i in range(1 + RUNG_WARMUPS):
                    server.solve(plan_id, pool[i], tol=TOL,
                                 stopping=_rule())
                self.observe_own()
                yield server, plan_id
            finally:
                with rec.span("runtime.server.close", "server") as sp:
                    server.close()
                m["runtime.server.close_ms"] = sp.ms
            with rec.span("runtime.server.disk_load", "server") as sp:
                PlanStore(plan_dir=plan_dir).get(plan_id)
            m["runtime.server.disk_load_ms"] = sp.ms

    @contextmanager
    def warm_runner(self, plan, transport: str, label: str, **opts):
        """Rung 3 (and the mesh side measurements): a started, warmed
        runner; its start cost is one span."""
        from repro.runtime.multiproc import MultiprocDtmRunner

        pool = self.pool
        with self.rec.span(f"runtime.multiproc.start.{label}", "runner"):
            # mesh returns from the constructor before its workers have
            # joined, so construction and first solve are one number
            runner = MultiprocDtmRunner(plan, shards=SHARDS,
                                        transport=transport, **opts)
            try:
                runner.solve(pool[0], tol=TOL, stopping=_rule())
            except BaseException:
                runner.close()
                raise
        try:
            for i in range(RUNG_WARMUPS):
                runner.solve(pool[1 + i], tol=TOL, stopping=_rule())
            self.observe_own()
            yield runner
        finally:
            runner.close()

    # -- the ladder -----------------------------------------------------
    def runner_solve(self, runner, name: str, request: int) -> Span:
        b = self.pool[request % len(self.pool)]
        with self.rec.span(name, "runner", request,
                           "runtime.server.solve") as sp:
            res = runner.solve(b, tol=TOL, stopping=_rule(),
                               warm_start=False)
        sp.counts.update(
            stop_loop_ms=res.sim_time * 1e3, polls=len(res.errors),
            sweeps=[r.sweeps for r in res.shard_reports])
        self.check(sp, res, b)
        return sp

    def ladder(self, plan) -> None:
        """The rungs run one after another, each stack alone on the
        host, over the same right-hand sides.  (Keeping all three stacks
        up and interleaving the rungs was tried: the idle stacks'
        workers, heartbeats and sockets inflated the mesh client median
        by 15 %, so the ledger no longer described the untraced run.)"""
        from repro.net.client import DtmClient

        rec, pool, spec = self.rec, self.pool, self.spec
        with self.client_stack() as (host, connections, plan_id):
            for i in range(PINGS):
                with rec.span("net.client.ping", "client", i):
                    connections[-1].ping()
            bare = Tally()
            for i in range(self.n):
                # every request twice: clocked bare, the way the
                # end-to-end loop clocks it, then as the ledger's span —
                # alternating, so both medians see the same host state
                # and their difference is what recording costs.  The
                # bare side runs half a pool ahead: no two consecutive
                # solves share a right-hand side (see README, findings)
                b = pool[(i + len(pool) // 2) % len(pool)]
                workloads._timed(
                    bare, self.a, b, lambda: workloads._solve(
                        connections[-1], plan_id, b))
                b = pool[i % len(pool)]
                with rec.span("net.client.solve", "client", i) as sp:
                    res = workloads._solve(connections[-1], plan_id, b)
                self.check(sp, res, b)
            self.tally.attempted += bare.attempted
            self.tally.failed += bare.failed
            self.untraced_ms = 1e3 * statistics.median(bare.times)
            for i in range(OWN_OPS if spec.kind == "cold" else 0):
                connections.pop().close()
                host.command("close")
                with rec.span("cold_restart.first_answer", "own", i) as sp:
                    host.restart()
                    connections.append(DtmClient(host.address))
                    res = workloads._solve(connections[-1], plan_id,
                                           pool[i])
                self.check(sp, res, pool[i])
        with self.server_stack(plan) as (server, plan_id):
            for i in range(self.n):
                b = pool[i % len(pool)]
                with rec.span("runtime.server.solve", "server", i,
                              "net.client.solve") as sp:
                    res = server.solve(plan_id, b, tol=TOL,
                                       stopping=_rule(), warm_start=False)
                self.check(sp, res, b)
        with self.warm_runner(plan, spec.transport, "rung") as runner:
            for i in range(self.n):
                self.runner_solve(runner, "runtime.multiproc.solve", i)
        self.runner_metrics(rec.named("runtime.multiproc.solve"))
        if spec.transport == "mesh":
            self.mesh_metrics(plan)

    def runner_metrics(self, spans: list) -> None:
        m = self.metrics
        stop = [s.counts["stop_loop_ms"] for s in spans]
        sweeps = [s.counts["sweeps"] for s in spans]
        m["runtime.multiproc.start_ms"] = \
            self.rec.named("runtime.multiproc.start.rung")[0].ms
        m["runtime.multiproc.solve_ms_p50"] = \
            statistics.median(s.ms for s in spans)
        m["runtime.multiproc.stop_loop_ms_p50"] = statistics.median(stop)
        m["runtime.multiproc.polls_p50"] = statistics.median(
            s.counts["polls"] for s in spans)
        m["runtime.multiproc.prepost_ms_p50"] = statistics.median(
            s.ms - t for s, t in zip(spans, stop))
        m["runtime.multiproc.sweeps_per_solve_p50"] = statistics.median(
            sum(per_shard) for per_shard in sweeps)
        m["runtime.multiproc.sweep_skew_p50"] = statistics.median(
            max(per_shard) / max(1, min(per_shard)) for per_shard in sweeps)
        # the shm fabric has no frames and is its own baseline
        own = m["runtime.multiproc.stop_loop_ms_p50"]
        m["net.mesh.frames_per_solve"] = 0.0
        m["net.mesh.fallback_frames"] = 0.0
        m["net.mesh.stop_loop_vs_shm"] = 1.0
        self.bases["net.mesh.stop_loop_vs_shm"] = \
            f"{own:.2f} ms / {own:.2f} ms (this is the shm fabric)"

    def mesh_metrics(self, plan) -> None:
        """Frame counts need an ``obs=True`` runner, and the stop-loop
        ratio an shm runner over the same plan: both run after the
        ladder."""
        m = self.metrics
        with self.warm_runner(plan, "mesh", "obs", obs=True) as runner:
            before = runner.metrics_snapshot()
            for i in range(FRAME_SOLVES):
                self.runner_solve(runner, "runtime.multiproc.solve.obs", i)
            after = runner.metrics_snapshot()
        m["net.mesh.frames_per_solve"] = (
            after.total("repro_mesh_frames_total")
            - before.total("repro_mesh_frames_total")) / FRAME_SOLVES
        m["net.mesh.fallback_frames"] = (
            after.total("repro_mesh_fallback_total")
            - before.total("repro_mesh_fallback_total"))
        with self.warm_runner(plan, "shm", "shm") as runner:
            shm = [self.runner_solve(
                runner, "runtime.multiproc.solve.shm", i)
                for i in range(self.n // 2)]
        mesh_stop = m["runtime.multiproc.stop_loop_ms_p50"]
        shm_stop = statistics.median(
            s.counts["stop_loop_ms"] for s in shm)
        m["net.mesh.stop_loop_vs_shm"] = mesh_stop / shm_stop
        self.bases["net.mesh.stop_loop_vs_shm"] = \
            f"{mesh_stop:.2f} ms mesh / {shm_stop:.2f} ms shm"

    # -- the layers below, called alone ---------------------------------
    def standalone(self, mat, plan, build_kwargs: dict) -> None:
        from repro.core.convergence import relative_residual
        from repro.linalg.iterative import conjugate_gradient
        from repro.net import wire
        from repro.plan import load_plan, save_plan
        from repro.plan.plan import build_plan
        from repro.plan.shard import extract_shards

        m, rec, b = self.metrics, self.rec, self.pool[0]
        x = harness.cg_reference(self.a, b, tol=1e-8)

        # one solve request and one response of this workload's size
        request = ({"op": "solve", "plan_id": "0" * 16, "tol": TOL,
                    "stopping": wire.stopping_to_spec(_rule()),
                    "warm_start": False, "tag": None}, {"b": b})
        response = ({"ok": True, "op": "solve", "seq": 1,
                     "plan_id": "0" * 16, "tag": None,
                     "wall_seconds": 0.02, "error": None,
                     "result": {"converged": True, "rms_error": 0.0,
                                "relative_residual": 5e-7,
                                "iterations": 100, "sim_time": 0.02,
                                "plan_reused": True, "plan_solves": 9,
                                "warm_started": False,
                                "stopped_by": "residual",
                                "stop_metric": 5e-7}}, {"x": x})
        frames = [wire.encode_message(*request),
                  wire.encode_message(*response)]
        m["net.wire.encode_us"] = 1e3 * _median_ms(lambda: (
            wire.encode_message(*request), wire.encode_message(*response)))
        m["net.wire.decode_us"] = 1e3 * _median_ms(lambda: [
            wire.decode_message(frame) for frame in frames])
        # + 4 length bytes and 1 type byte per frame
        m["net.wire.bytes_per_solve"] = float(
            sum(len(frame) + 5 for frame in frames))

        with rec.span("plan.build.vtm", "standalone"):
            vtm_plan = build_plan(mat, b, mode="vtm", **build_kwargs)
        with rec.span("core.vtm.solve", "standalone") as sp:
            vtm = vtm_plan.session().solve(b, tol=TOL, stopping=_rule())
        self.check(sp, vtm, b)
        m["core.vtm.sweeps_to_tol"] = float(vtm.iterations)
        m["core.vtm.solve_ms"] = sp.ms
        m["core.vtm.sweep_us_per_subdomain"] = \
            sp.ms * 1e3 / (vtm.iterations * plan.n_parts)
        per_shard = statistics.median(
            statistics.median(s.counts["sweeps"])
            for s in rec.named("runtime.multiproc.solve"))
        m["runtime.multiproc.sweep_efficiency"] = \
            vtm.iterations / per_shard
        self.bases["runtime.multiproc.sweep_efficiency"] = (
            f"{vtm.iterations} synchronous sweeps / "
            f"{per_shard:g} per shard")
        del vtm_plan

        m["core.convergence.residual_check_us"] = 1e3 * _median_ms(
            lambda: relative_residual(plan.a_mat, x, b))

        def rhs_swap() -> None:
            for loc, rhs in zip(plan.base_locals, plan.spread_sources(b)):
                if loc.n_local:
                    loc.response_for(rhs)

        m["plan.rhs_swap_ms_p50"] = _median_ms(rhs_swap)
        m["runtime.multiproc.unattributed_ms"] = (
            m["runtime.multiproc.prepost_ms_p50"]
            - m["plan.rhs_swap_ms_p50"])

        with rec.span("plan.extract_shards", "standalone") as sp:
            shards = extract_shards(plan, SHARDS)
        m["plan.extract_shards_ms"] = sp.ms
        m["plan.shard_payload_bytes"] = float(
            sum(len(spec.to_payload()) for spec in shards))
        del shards

        with _scratch_dir("artifact-") as scratch:
            path = os.path.join(scratch, "plan.bin")
            with rec.span("plan.artifact.save", "standalone") as sp:
                save_plan(plan, path)
            m["plan.artifact.save_ms"] = sp.ms
            m["plan.artifact.bytes"] = float(os.path.getsize(path))
            with rec.span("plan.artifact.load_mmap", "standalone") as sp:
                loaded = load_plan(path, mmap=True)
            m["plan.artifact.load_mmap_ms"] = sp.ms
            del loaded

        with rec.span("linalg.cg_solve", "standalone") as sp:
            cg = conjugate_gradient(plan.a_mat, b, tol=TOL)
        self.tally.record(sp.end - sp.start, harness.residual_ok(
            self.a, cg.x, b, cg.converged))
        m["linalg.cg_solve_ms"] = sp.ms
        m["linalg.cg_iterations"] = float(cg.iterations)

    # -- the simulator's own operation ----------------------------------
    def sim_runs(self) -> None:
        m = self.metrics
        for name in ("sim.events_per_s", "sim.messages", "sim.solves",
                     "sim.t_end_ms"):
            m[name] = 0.0
        if self.spec.kind != "sim":
            return
        workloads.paper_run(self.sim_plan, self.pool[0])  # warm-up
        spans = []
        for i in range(OWN_OPS):
            b = self.pool[i]
            with self.rec.span("sim.run", "own", i) as sp:
                res = workloads.paper_run(self.sim_plan, b)
            sp.counts.update(messages=res.n_messages, solves=res.n_solves,
                             t_end_ms=res.t_end)
            self.tally.record(sp.end - sp.start,
                              workloads.sim_ok(self.a, res, b))
            spans.append(sp)
        # totals over the traced runs: exact counts for a given seed
        for key in ("messages", "solves", "t_end_ms"):
            m[f"sim.{key}"] = float(sum(s.counts[key] for s in spans))
        wall_ms = sum(s.ms for s in spans)
        m["sim.events_per_s"] = \
            (m["sim.messages"] + m["sim.solves"]) * 1e3 / wall_ms
        self.bases["sim.events_per_s"] = (
            f"({m['sim.messages']:.0f} messages + {m['sim.solves']:.0f} "
            f"solves) / {wall_ms:.1f} ms over {OWN_OPS} runs")


def trace(spec: Workload, seed: int) -> tuple:
    """The traced pass of *spec*; ``(tally, metrics, detail)``."""
    from repro.plan.plan import build_plan

    run = Pass(spec, seed)
    m, rec = run.metrics, run.rec
    run.sim_runs()

    mat = workloads.as_matrix(run.a)
    build_kwargs = {k: (tuple(v) if isinstance(v, list) else v)
                    for k, v in spec.plan_kwargs.items()}
    # a throwaway build first (large enough to take the sparse path), so
    # first-use imports — ~0.5 s of scipy — are not billed to the plan
    tiny = harness.poisson_csr(40)
    build_plan(workloads.as_matrix(tiny),
               harness.rhs_pool(seed, tiny.n, size=1)[0],
               n_subdomains=4, grid_shape=(40, 40))
    with rec.span("plan.build", "standalone") as sp:
        plan = build_plan(mat, run.pool[0], **build_kwargs)
    m["plan.build_ms"] = sp.ms
    run.ladder(plan)
    run.standalone(mat, plan, build_kwargs)
    # the in-process rungs spawned workers of their own
    workloads.check_leftovers(run.tally, run.own_pids, run.own_segments)

    client = rec.p50("net.client.solve")
    untraced = run.untraced_ms
    server = rec.p50("runtime.server.solve")
    runner = m["runtime.multiproc.solve_ms_p50"]
    m["net.client.solve_ms_p50"] = client
    m["net.ping_rtt_us"] = rec.p50("net.client.ping") * 1e3
    m["net.solve_overhead_ms"] = client - server
    m["runtime.server.solve_overhead_ms"] = server - runner
    m["trace.overhead_frac"] = (client - untraced) / untraced
    m["trace.ledger_sum_frac"] = (
        m["net.solve_overhead_ms"] + m["runtime.server.solve_overhead_ms"]
        + m["runtime.multiproc.prepost_ms_p50"]
        + m["runtime.multiproc.stop_loop_ms_p50"]) / client
    m["failed_frac"] = run.tally.failed / run.tally.attempted
    run.bases.update({
        "net.solve_overhead_ms":
            f"{client:.2f} ms client - {server:.2f} ms server",
        "runtime.server.solve_overhead_ms":
            f"{server:.2f} ms server - {runner:.2f} ms runner",
        "trace.overhead_frac":
            f"({client:.2f} - {untraced:.2f}) / {untraced:.2f} ms",
        "trace.ledger_sum_frac":
            f"net + server + prepost + stop loop over {client:.2f} ms",
    })
    detail = {"workload": spec.name, "bases": run.bases,
              "rung_solves": run.n, "spans": len(rec.spans),
              "spans_file": os.path.relpath(rec.write(seed),
                                            harness.REPO_ROOT),
              "notes": run.tally.notes}
    return run.tally, m, detail
