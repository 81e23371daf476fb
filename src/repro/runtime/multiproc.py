"""True-parallel DTM: sharded workers over a pluggable transport.

The simulator backends *model* asynchrony; this runtime **executes**
it.  A :class:`MultiprocDtmRunner` cuts an immutable
:class:`~repro.plan.SolverPlan` into contiguous shards (see
:mod:`repro.plan.shard`), spawns one worker process per shard, and
lets every worker free-run the paper's Table 1 loop over its
subdomains — resolve, emit ``b = 2u − a``, deliver — with **no global
barrier and no locks**:

* wave delivery is a :class:`~repro.net.transport.Transport` concern:
  the default :class:`~repro.net.transport.ShmTransport` keeps the
  global wave vector in one ``shared_memory`` array where every slot
  has exactly one writer (a delivery is an aligned 8-byte overwrite);
  :class:`~repro.net.mesh.MeshTransport` carries the same
  latest-wins frames over length-prefixed sockets so shards need no
  shared address space at all — the machine-spanning mode;
* cross-shard traffic is organized per directed shard pair
  (:class:`~repro.plan.shard.MailboxSpec` channels), each a batch of
  latest-wins slots;
* stopping is **reference-free**: the parent process acts as the
  designated coordinator and judges a
  :class:`~repro.core.convergence.ResidualRule` / ``QuiescenceRule``
  monitor on *looks* — STOP → ack → measure → done | resume — so the
  plan's dense reference factor is never touched
  (``plan.reference_materialized`` stays ``False``).  Between looks
  the shards touch their ports only; a shard computes its full states
  once per look, when STOP arrives.  *When* the coordinator looks is
  paced by the measured residual decay (:class:`_ProbePacer`);
  *whether* it stops is only ever decided on a measured, quiesced
  sample.

Numerical contract
------------------
``shards=1`` executes the event-driven fleet simulator path through a
:class:`~repro.plan.session.SolverSession` and is therefore
**bitwise-identical** to ``DtmSimulator`` — the degenerate shard
count runs the proven reference implementation.
``shards>1`` free-runs with real (hardware) delays, so trajectories
are scheduling-dependent; the contract is convergence to the same
tolerance, asserted by the runner itself: every measurement is taken
on a *quiesced* state (workers stop, publish, ack; then the coordinator
gathers and measures), and a solve is reported ``converged`` only if
its last such measurement met the rule.  This holds for every
transport — see PERFORMANCE.md ("Transports").

Memory-ordering note: on shm, workers and coordinator exchange float64
waves and int64 control words through aligned shared-memory cells with
single-writer discipline; on the cache-coherent platforms CPython
supports this yields latest-wins visibility without locks (torn
8-byte reads do not occur on aligned cells).  On sockets, frames are
applied whole under the GIL.  The coordinator reads states and waves
only between the acks of one epoch and the start of the next, when no
shard writes.
"""

from __future__ import annotations

import math
import statistics
import time
from collections import deque
from multiprocessing import get_context
from typing import Optional

import numpy as np

from ..core.convergence import (
    QuiescenceRule,
    ResidualMonitor,
    ResidualRule,
    StateProbe,
    StoppingRule,
    as_stopping_rule,
    begin_monitor,
    relative_residual,
)
from ..errors import ConfigurationError, MultiprocError, WorkerLostError
from ..net.transport import EdgeMailbox, resolve_transport
from ..obs import (
    MetricsSnapshot,
    merge_snapshots,
    resolve_obs,
    resolve_trace,
)
from ..plan.session import SolveResult, SolverSession, _as_rhs
from ..plan.shard import ShardSpec, extract_shards
from ..sim.trace import ShardReport, merge_shard_series
from .shard_worker import _worker_main

__all__ = [
    "EdgeMailbox",
    "MultiprocDtmRunner",
    "solve_dtm_multiproc",
]


# ----------------------------------------------------------------------
# coordinator
# ----------------------------------------------------------------------
#: longest coordinator nap before a look (wall seconds): the
#: health-check cadence, and the fixed cadence of quiescence solves
PROBE_CEILING = 0.01

#: first nap of the stop handshake's back-off (it doubles up to
#: ``idle_sleep``): workers ack within one sweep, ~0.1 ms on small shards
_ACK_NAP = 2e-5

#: how far past the predicted crossing a look is aimed, in nats of
#: residual decay (half a decade).  An early look costs a whole extra
#: stop/resume, a late one only its lateness, so the aim errs late.
_AIM_PAST = 0.5 * math.log(10.0)

#: first look of a solve seeded by three finished ones, where looks are
#: dear; every other aim, and every nap, stops at the ceiling
_REACH = 3.0 * PROBE_CEILING


def _first(node, kind, children: str):
    """First *kind* instance in a rule or monitor tree, or ``None``.

    Composite rules keep their members in ``rules``, composite
    monitors in ``children``; *children* names the attribute to walk.
    """
    if isinstance(node, kind):
        return node
    for child in getattr(node, children, ()):
        hit = _first(child, kind, children)
        if hit is not None:
            return hit
    return None


class _ProbePacer:
    """Chooses *when* the coordinator evaluates the stopping rule next.

    DTM's error decays geometrically and the zero state's relative
    residual is 1, so ``log r(t)`` is a line through the origin of the
    solve whose slope belongs to the plan (the split and the
    impedances), not to the right-hand side.  Every measured sample
    gives that slope as the chord ``-log r / t``; the pacer keeps the
    last solves' chords and seeds a solve with their median
    (:attr:`rate`, nats per second), so in the steady state the first
    probe already lands just past the ``tol`` crossing.  A sample above
    the seeded line is read as a late start, not a slower plan (the
    line is moved to the sample and keeps the steeper of the two
    slopes) — but only twice per solve, the one or two probes a worker
    that lost its core costs on a busy host: from the third sample on
    the slope is the one measured between the solve's last two
    samples, so a wrong seed is paid for with two probes, not with a
    re-probe at every step down to the floor.

    Where a look is dear — 8–10 ms at nx=240, as long as the solve
    sweeps; 2 ms at nx=100 — one aimed at the crossing meets ``tol`` or
    misses it by a hair with the host's mood, and a miss is a second
    look.  So the pacer keeps the median cost of the last looks, and a
    seeded solve's first look moves from its aim to :data:`_REACH`, a
    fixed wall time, as that cost goes from half to three quarters of
    a ceiling.  The cost does not depend on when the pacer looked:
    nothing feeds back (PERFORMANCE.md, "Stopping without a barrier").

    The pacer never decides *whether* to stop: that takes a measured
    ``residual <= tol`` from the monitor.  Whenever there is nothing to
    extrapolate (no residual rule, no slope yet, a residual that is not
    decreasing) delays grow geometrically from ``floor`` to
    :data:`PROBE_CEILING`; a quiescence rule, whose metric is the wave
    change *per sample interval*, gets the fixed ceiling cadence.
    """

    def __init__(self, floor: float) -> None:
        self.floor = min(float(floor), PROBE_CEILING)
        self._chords: deque = deque(maxlen=5)
        self._costs: deque = deque(maxlen=5)
        self.start(None, False)

    @property
    def rate(self) -> Optional[float]:
        """Decay rate learned from earlier solves (``None`` before)."""
        return statistics.median(self._chords) if self._chords else None

    def start(self, tol: Optional[float], fixed: bool) -> None:
        """Begin a solve: *tol* of its residual rule (if any), and
        whether its rule tree pins the cadence."""
        self._log_tol = None if tol is None else math.log(tol)
        self._fixed = fixed
        self._anchor = (0.0, 0.0)
        self._slope = self.rate
        self._chord: Optional[float] = None
        self._stalled = False
        self._falls = 0
        self._delay = 0.0

    def finish(self) -> None:
        """End a solve: its last chord joins the learned rate."""
        if self._chord is not None:
            self._chords.append(self._chord)

    def next(self, t: float, residual: Optional[float] = None,
             cost: Optional[float] = None) -> tuple:
        """``(delay, crossing)`` at solve time *t*.

        *residual* is what a look at *t* just measured (``None`` when
        it measured none, or at the start of a solve), *cost* its
        seconds from STOP to measured; *crossing* is the solve time at
        which the fitted line meets the tolerance (``None`` without).
        """
        if cost is not None:
            self._costs.append(cost)
        if residual is not None and residual > 0.0:
            log_r = math.log(residual)
            t_a, log_a = self._anchor
            # (a residual still above the zero state's 1 has no chord)
            self._stalled = log_r >= min(log_a, 0.0)
            if not self._stalled:
                self._chord = -log_r / t
                self._falls += 1
                if self._falls > 2 and log_a < 0.0 and t > t_a:
                    self._slope = (log_a - log_r) / (t - t_a)
                else:
                    self._slope = max(self._chord, self.rate or 0.0)
            self._anchor = (t, log_r)
        if self._fixed or self._stalled or self._slope is None \
                or self._log_tol is None:
            self._delay = PROBE_CEILING if self._fixed else min(
                PROBE_CEILING, max(self.floor, 2.0 * self._delay))
            return self._delay, None
        t_a, log_a = self._anchor
        crossing = t_a + (log_a - self._log_tol) / self._slope
        self._delay = min(PROBE_CEILING, max(
            self.floor, crossing + _AIM_PAST / self._slope - t))
        if t == 0.0 and len(self._chords) >= 3 and self._costs:
            # a seeded solve's first look; look cost ½ → ¾ ceiling
            dear = 4.0 * statistics.median(self._costs) / PROBE_CEILING
            self._delay += (_REACH - self._delay) * min(
                1.0, max(0.0, dear - 2.0))
        return self._delay, crossing


class MultiprocDtmRunner:
    """Sharded, truly parallel DTM execution over a shared plan.

    Parameters
    ----------
    plan:
        A dtm-mode :class:`~repro.plan.SolverPlan`.  Everything
        matrix-dependent (factors, packing, routing) is reused; the
        runner adds only the shard cut and the worker pool.
    shards:
        Worker process count.  ``1`` executes the event-driven fleet
        simulator in-process (bitwise-identical to ``DtmSimulator``);
        ``>1`` runs free-running workers.
    idle_sleep:
        Worker nap while it has nothing to do, and the shortest nap
        the coordinator takes before a look (the longest is
        the module constant :data:`PROBE_CEILING`; everything between
        is paced by the measured residual decay, see
        :class:`_ProbePacer` and PERFORMANCE.md "Stopping without a
        barrier").
    mp_context:
        ``multiprocessing`` start method (default ``"spawn"``, the
        start method that is safe regardless of parent threads; pass
        ``"fork"`` on POSIX for faster worker startup).
    ack_timeout:
        Seconds to wait for workers to acknowledge epoch transitions
        before declaring them lost.
    transport:
        ``"shm"`` (default), ``"mesh"``, or a
        :class:`~repro.net.transport.Transport` instance — the fabric
        waves/states/control travel over.  ``"shm"`` requires one
        machine; ``"mesh"`` is the socket fabric: it works across
        address spaces and, with a bound LAN address, across machines,
        ships neighbor waves worker-to-worker (through the
        coordinator's hub for any worker without a peer socket) and
        recovers lost workers.
    spawn_workers:
        Spawn one local process per shard (default).  With a mesh
        transport you may pass ``False`` and attach workers yourself
        (``python -m repro.net.worker``) — e.g. from other machines.
    faults:
        Optional :class:`~repro.net.faults.FaultPlan` armed on the
        spawned workers — the deterministic chaos-testing hook.
        Respawned workers never inherit faults (each script fires
        against the original incarnation only).
    recover:
        Recover lost workers (respawn local ones with a fresh state
        snapshot; wait for external ones to reconnect) instead of
        aborting the solve.  Default: whatever the transport supports
        (``True`` for mesh, ``False`` for shm).
    max_recoveries:
        Worker losses tolerated over the runner's lifetime before
        :class:`~repro.errors.WorkerLostError` is raised.
    recovery_timeout:
        Seconds a lost worker may take to rejoin (respawn + register,
        or external reconnect) before the solve is abandoned with
        :class:`~repro.errors.WorkerLostError`.

    Workers persist across :meth:`solve` calls (epochs), which is what
    makes a warm runner a *serving* unit: right-hand-side swaps cost
    one back-substitution per subdomain plus one transport publish.
    """

    def __init__(self, plan, shards: int = 2, *,
                 idle_sleep: float = 0.001,
                 mp_context: str = "spawn",
                 ack_timeout: float = 30.0,
                 transport="shm",
                 spawn_workers: bool = True,
                 faults=None,
                 recover: Optional[bool] = None,
                 max_recoveries: int = 8,
                 recovery_timeout: float = 30.0,
                 obs=None) -> None:
        if plan.mode != "dtm":
            raise ConfigurationError(
                f"MultiprocDtmRunner needs a dtm-mode plan, got "
                f"{plan.mode!r}")
        if shards < 1:
            raise ConfigurationError("shards must be >= 1")
        if idle_sleep <= 0:
            raise ConfigurationError("idle_sleep must be positive")
        self.plan = plan
        self.shards = int(shards)
        self.idle_sleep = float(idle_sleep)
        self._pacer = _ProbePacer(self.idle_sleep)
        self.ack_timeout = float(ack_timeout)
        if max_recoveries < 0:
            raise ConfigurationError("max_recoveries must be >= 0")
        if recovery_timeout <= 0:
            raise ConfigurationError("recovery_timeout must be positive")
        self._last_waves: Optional[np.ndarray] = None
        self.n_solves = 0
        self._closed = False
        self._procs: list = []
        self._epoch = 0
        self.faults = faults
        self.max_recoveries = int(max_recoveries)
        self.recovery_timeout = float(recovery_timeout)
        self.n_recoveries = 0
        self._recovering: dict = {}  # shard -> rejoin deadline
        self._spawn_workers_flag = bool(spawn_workers)
        # telemetry: obs=None follows REPRO_OBS, obs=True gets a fresh
        # registry; the disabled default costs one attribute check per
        # instrumented site (see repro.obs)
        self.obs = resolve_obs(obs)
        self._obs_sweeps_seen: dict = {}
        self._c_solves = self.obs.counter(
            "repro_runner_solves_total",
            "solves served by this multiprocess runner")
        self._c_recoveries = self.obs.counter(
            "repro_runner_recoveries_total",
            "lost shard workers recovered (respawn or rejoin)")
        self._h_probes = self.obs.histogram(
            "repro_runner_stop_probes",
            "stop-rule evaluations per solve",
            buckets=(1, 2, 3, 4, 6, 8, 12, 16, 32, 64, 128))
        self._h_overshoot = self.obs.histogram(
            "repro_runner_stop_overshoot_seconds",
            "stop signal minus the interpolated tolerance crossing")
        self._active_trace = None

        if self.shards == 1:
            self._session: Optional[SolverSession] = SolverSession(plan)
            self.specs: list[ShardSpec] = []
            self.transport = None
            self.recover = False
            return
        self._session = None
        self.specs = extract_shards(plan, self.shards)
        plan.record_session()
        self._state_off = np.concatenate(
            [[0], np.cumsum([loc.n_local for loc in plan.base_locals])]
        ).astype(np.int64)
        self._n_states = int(self._state_off[-1])
        self._n_slots = int(plan.fleet_template.n_slots_total)
        #: state-buffer rows holding each part's port potentials, in
        #: the fleet's port_offsets order (for _wave_fixed_point_delta)
        self._port_rows = np.concatenate(
            [self._state_off[q] + np.arange(loc.n_ports, dtype=np.int64)
             for q, loc in enumerate(plan.base_locals)]) \
            if self._n_states else np.zeros(0, dtype=np.int64)
        self._ctx = get_context(mp_context)
        self.transport = resolve_transport(transport)
        self.recover = (bool(self.transport.supports_recovery)
                        if recover is None else bool(recover))
        if faults is not None and not spawn_workers:
            raise ConfigurationError(
                "a FaultPlan arms spawned workers; with "
                "spawn_workers=False script faults on the external "
                "workers themselves")
        self._port = self.transport.bind(
            self.specs, n_slots=self._n_slots, n_states=self._n_states,
            idle_sleep=self.idle_sleep, obs_enabled=self.obs.enabled)
        # the transport now holds each shard's stacks, encoded once;
        # nothing on the coordinator reads them, so it keeps the index
        # tables and mailboxes only
        for spec in self.specs:
            spec.kernel = None
        if self.obs.enabled:
            self._port.install_obs(self.obs)
        if spawn_workers:
            self._spawn_workers()

    # -- lifecycle ------------------------------------------------------
    def _spawn_one(self, index: int, faults=None):
        descriptor = self.transport.worker_descriptor(index)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(descriptor, faults),
            name=f"dtm-shard-{index}",
            daemon=True)
        proc.start()
        return proc

    def _spawn_workers(self) -> None:
        for spec in self.specs:
            shard_faults = (self.faults.for_shard(spec.index)
                            if self.faults is not None else None)
            self._procs.append(
                self._spawn_one(spec.index, shard_faults))

    def close(self) -> None:
        """Shut the worker pool down and release the transport."""
        if self._closed:
            return
        self._closed = True
        if self._session is not None:
            return
        self._port.shutdown()
        deadline = time.perf_counter() + 5.0
        for proc in self._procs:
            proc.join(timeout=max(0.0, deadline - time.perf_counter()))
        for proc in self._procs:
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=1.0)
        self._port.close()

    def __enter__(self) -> "MultiprocDtmRunner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- health ---------------------------------------------------------
    def _dead_shards(self) -> set:
        return {i for i, p in enumerate(self._procs)
                if not p.is_alive()}

    def _check_workers(self) -> None:
        failed = self._port.failed_shard()
        if failed:
            detail = self._port.error_detail()
            suffix = f":\n{detail}" if detail else \
                " (see its stderr traceback)"
            raise MultiprocError(
                f"shard worker {failed - 1} raised{suffix}; the runner "
                "cannot continue")
        dead = self._dead_shards()
        lost = set(self._port.lost_workers())
        stale = set(self._port.stale_workers())
        if self.recover:
            self._maintain_recovery(dead | lost | stale)
            return
        if dead:
            names = sorted(self._procs[i].name for i in dead)
            raise MultiprocError(
                f"worker processes died without error marker: {names} "
                "(killed or crashed hard); restart the runner")
        if lost:
            raise MultiprocError(
                f"shard connections dropped without error marker: "
                f"{sorted(lost)}; restart the runner")
        if stale:
            raise MultiprocError(
                f"shard workers went silent: {sorted(stale)}; "
                "restart the runner")

    # -- failure recovery -----------------------------------------------
    def _maintain_recovery(self, troubled: set) -> None:
        """Advance the per-shard recovery state machine.

        A shard enters recovery when it is dead (waitpid), lost
        (dropped control socket) or stale (silent heartbeats): local
        workers are terminated and respawned **without faults**;
        external workers are given until their deadline to reconnect
        on their own.  A shard leaves recovery when it is healthy and
        registered again — the hub's levelling snapshot already
        re-seeded it from the coordinator's mirrors.  While a shard is
        recovering, :meth:`_wait_acks` forgives its ack and the gather
        uses its last published state; the stopping decision is taken
        on that gathered state, so a loss can cost extra looks, never
        a wrong answer.
        """
        now = time.perf_counter()
        connected = self._port.connected_shards()
        connected = (set(range(self.shards)) if connected is None
                     else set(connected))
        for shard in list(self._recovering):
            if shard not in troubled and shard in connected:
                del self._recovering[shard]
                continue
            if now > self._recovering[shard]:
                raise WorkerLostError(
                    f"shard {shard} did not rejoin within "
                    f"{self.recovery_timeout:.0f}s of being lost")
        for shard in sorted(troubled):
            if shard in self._recovering:
                continue
            self.n_recoveries += 1
            self._c_recoveries.inc()
            if self._active_trace is not None:
                self._active_trace.event("recovery", shard=int(shard))
            if self.n_recoveries > self.max_recoveries:
                raise WorkerLostError(
                    f"shard {shard} lost after the recovery budget "
                    f"({self.max_recoveries}) was exhausted")
            self._recovering[shard] = now + self.recovery_timeout
            if shard < len(self._procs):
                proc = self._procs[shard]
                if proc.is_alive():  # stale/hung, not dead: replace it
                    proc.terminate()
                proc.join(timeout=5.0)
                self._procs[shard] = self._spawn_one(shard)

    def _wait_acks(self, epoch: int, budget_end: float) -> None:
        """Block until every live shard has acknowledged *epoch*.

        Workers ack within one sweep, so the wait backs off from
        ``_ACK_NAP`` up to ``idle_sleep``; while any of the solve's
        budget remains, a nap is cut at *budget_end* like every other
        coordinator nap.
        """
        deadline = time.perf_counter() + self.ack_timeout
        pending = set(range(self.shards))
        nap = _ACK_NAP
        while pending:
            self._check_workers()
            # shards mid-recovery cannot ack: their last published
            # states serve the gather the stopping decision is taken
            # on (a shard levelled while this stop is in flight sees
            # the epoch already ended and acks)
            acks = self._port.acks()
            done = {i for i in pending
                    if int(acks[i]) >= epoch or i in self._recovering}
            pending -= done
            if not pending:
                return
            if time.perf_counter() > deadline:
                raise MultiprocError(
                    f"shards {sorted(pending)} did not acknowledge "
                    f"epoch {epoch} within {self.ack_timeout:.0f}s")
            # (a spent budget no longer bounds the nap: the wait ends
            # on the acks, and must not spin while they are slow)
            remaining = budget_end - time.perf_counter()
            time.sleep(min(nap, remaining) if remaining > _ACK_NAP
                       else nap)
            nap = min(2.0 * nap, self.idle_sleep)

    # -- coordinator-side measurement -----------------------------------
    def _wave_fixed_point_delta(self, states: np.ndarray,
                                waves: np.ndarray) -> float:
        """Max wave change one more lockstep sweep would produce.

        Computed on the *quiesced* state from what the look already
        read: the published port potentials (*states*) and the wave
        vector give every slot's outgoing wave ``b = 2u − a``, and
        the routing permutation says which slot it would overwrite.
        Genuine quiescence (a wave fixed point) has delta ≈ 0; a
        scheduling stall (workers preempted, waves merely *unchanged*,
        not converged) has a large delta — the check that keeps a
        wall-clock QuiescenceRule from conflating the two.
        """
        fleet = self.plan.fleet_template
        if self._n_slots == 0:
            return 0.0
        u = states[self._port_rows]
        out = 2.0 * u[fleet.slot_port_global] - waves
        return float(np.max(np.abs(
            out - waves[fleet.route_dest_slot_global])))

    def shard_reports(self, base: Optional[np.ndarray] = None
                      ) -> list[ShardReport]:
        counts = self._port.sweep_counts()
        if base is not None:
            counts = counts - base
        return [
            ShardReport(
                shard=spec.index,
                part_lo=int(spec.parts[0]),
                part_hi=int(spec.parts[-1]) + 1,
                sweeps=int(counts[spec.index]),
                n_slots=spec.slot_hi - spec.slot_lo,
                state_rows=spec.state_hi - spec.state_lo)
            for spec in self.specs
        ]

    # -- the solve ------------------------------------------------------
    def _resolve_rule(self, stopping, tol: Optional[float]
                      ) -> StoppingRule:
        if stopping is None:
            return ResidualRule(tol=tol if tol is not None else 1e-8)
        rule = as_stopping_rule(stopping, tol=tol)
        if rule.needs_reference:
            raise ConfigurationError(
                "the multiproc backend is reference-free by contract; "
                "use ResidualRule / QuiescenceRule (or shards=1 for "
                "the simulator path with reference rules)")
        return rule

    def solve(self, b=None, *, tol: Optional[float] = 1e-8,
              stopping=None, warm_start: bool = False,
              wall_budget: float = 60.0,
              t_max: float = 5000.0,
              sample_interval: Optional[float] = None,
              max_events: Optional[int] = None,
              trace=None) -> SolveResult:
        """One sharded solve against *b* (default: the plan's rhs).

        ``stopping=None`` means ``ResidualRule(tol)`` at every shard
        count — the runner is reference-free by default.  ``shards=1``
        delegates to the fleet-simulator session
        (``t_max``/``sample_interval``/``max_events`` apply, and an
        explicit reference-needing rule is allowed there — the
        simulator path can afford the oracle).  With ``shards>1`` the
        run is wall-clock bounded by ``wall_budget`` seconds and
        reference-needing rules are rejected.  The rule is judged on
        *looks*: the shards are stopped, publish, ack, and the
        coordinator measures that quiesced state once; a look that
        does not end the solve resumes the shards on their live waves
        (a quiescence stop also needs the wave fixed-point delta to
        agree, so a scheduling stall is not mistaken for convergence).
        """
        if self._closed:
            raise MultiprocError("runner is closed")
        if self._session is not None:
            if stopping is None:
                stopping = ResidualRule(
                    tol=tol if tol is not None else 1e-8)
            return self._session.solve(
                b, t_max=t_max, tol=tol, stopping=stopping,
                warm_start=warm_start, sample_interval=sample_interval,
                max_events=max_events, trace=trace)
        if sample_interval is not None or max_events is not None:
            raise ConfigurationError(
                "sample_interval/max_events are simulator knobs; with "
                "shards>1 the coordinator paces its own probes — bound "
                "the solve with wall_budget")
        if wall_budget <= 0:
            raise ConfigurationError("wall_budget must be positive")

        plan = self.plan
        b_vec = plan.base_b if b is None else _as_rhs(b, plan.n)
        rule = self._resolve_rule(stopping, tol)
        res_rule = _first(rule, ResidualRule, "rules")
        res_tol = None if res_rule is None else res_rule.tol
        quiet_rule = _first(rule, QuiescenceRule, "rules")
        quiet_thr = None if quiet_rule is None else quiet_rule.threshold
        tr = resolve_trace(trace)
        self._active_trace = tr

        # rhs swap, coordinator-side: one back-substitution per
        # subdomain against the plan's retained factors, then one
        # transport publish
        rhs_list = plan.spread_sources(b_vec)
        x0_full = np.zeros(self._n_states)
        for loc, rhs in zip(plan.base_locals, rhs_list):
            if loc.n_local:
                x0_full[self._state_off[loc.part]:
                        self._state_off[loc.part + 1]] = \
                    loc.response_for(rhs)
        self._port.write_x0(x0_full)
        if tr is not None:
            tr.event("rhs_swap", shards=self.shards, warm=bool(
                warm_start and self._last_waves is not None))
        warm = warm_start and self._last_waves is not None
        self._port.write_waves(
            self._last_waves if warm else np.zeros(self._n_slots))
        self._check_workers()

        t0 = time.perf_counter()
        base_sweeps = self._port.sweep_counts()
        deadline = t0 + wall_budget
        # a warm start does not begin at the zero state the learned
        # decay line starts from: pace it cold and learn nothing from it
        pacer = _ProbePacer(self.idle_sleep) if warm else self._pacer
        pacer.start(res_tol, fixed=quiet_thr is not None)

        def watch():
            _, monitor, _ = begin_monitor(
                rule, tol=tol, system=(plan.a_mat, b_vec))
            res_monitor = _first(monitor, ResidualMonitor, "children")
            return monitor, (None if res_monitor is None
                             else res_monitor.series)

        monitor, residuals = watch()
        series_parts = [monitor.series]
        n_looks = 0
        delay, crossing = pacer.next(0.0)
        while True:
            # one look: let the shards run on their ports for the paced
            # delay, quiesce them, and judge the one state they publish
            self._epoch += 1
            epoch = self._epoch
            self._port.begin_epoch(epoch)
            left = min(delay, deadline - time.perf_counter())
            while left > 0.0:  # a ceiling at a time, a health check between
                time.sleep(min(left, PROBE_CEILING))
                left -= PROBE_CEILING
                if left > 0.0:
                    self._check_workers()
            stopped = time.perf_counter()
            self._port.signal_stop(epoch)
            self._wait_acks(epoch, deadline)
            t = time.perf_counter() - t0
            n_looks += 1
            states = self._port.read_states()
            probe = StateProbe(lambda: self.plan.split.gather_flat(states),
                               self._port.read_waves)
            n_seen = 0 if residuals is None else len(residuals)
            event = monitor.update(t, probe)
            out_of_budget = time.perf_counter() >= deadline
            if event is None and out_of_budget:
                # rules that sample sparsely (ResidualRule.every) must
                # still judge the state the solve ends on
                event = monitor.finalize(t, probe)
            residual = float(residuals.final) \
                if residuals is not None and len(residuals) > n_seen \
                else None
            # the prediction only places the next look; stopping takes
            # the monitor's verdict on this measured, quiesced sample
            delay, crossing = pacer.next(
                t, residual, time.perf_counter() - stopped)
            if tr is not None:
                tr.event("probe", epoch=epoch, t=t, residual=residual,
                         next_delay=delay, crossing=crossing)
            if event is not None and event.rule == "quiescence" \
                    and quiet_thr is not None \
                    and self._wave_fixed_point_delta(
                        states, probe.waves) > quiet_thr:
                # a scheduling stall (waves unchanged because workers
                # were preempted), not a fixed point: look on with a
                # fresh monitor, its latch and streak forgotten
                event = None
                monitor, residuals = watch()
                series_parts.append(monitor.series)
            if event is not None or out_of_budget:
                break
            # above tol: the next begin_epoch resumes the shards on
            # their untouched live waves
        x = probe.x
        final_rr = residual if residual is not None \
            else relative_residual(plan.a_mat, x, b_vec)
        if event is not None and event.rule == "residual" \
                and crossing is not None:
            self._h_overshoot.observe(max(0.0, t - crossing))

        wall = time.perf_counter() - t0
        pacer.finish()
        self._last_waves = self._port.read_waves()
        self.n_solves += 1
        self._c_solves.inc()
        self._h_probes.observe(n_looks)
        self._sync_sweep_counters()
        self._active_trace = None
        served = plan.record_solve()
        reports = self.shard_reports(base_sweeps)
        converged = event is not None and event.converged
        if tr is not None:
            tr.event("stop",
                     rule=event.rule if event is not None else None,
                     converged=bool(converged), wall=float(wall))
        return SolveResult(
            x=x,
            rms_error=np.nan,
            relative_residual=final_rr,
            converged=converged,
            iterations=int(sum(r.subdomain_solves for r in reports)),
            sim_time=wall,
            errors=merge_shard_series(series_parts, rule.name),
            split=plan.split.with_sources(b_vec, rhs_list),
            plan_reused=plan.from_cache or served > 1,
            plan_solves=served,
            warm_started=warm,
            stopped_by=event.rule if event is not None else None,
            stop_metric=(event.metric if event is not None
                         else final_rr),
            shard_reports=reports,
            trace=tr,
        )

    # -- telemetry ------------------------------------------------------
    def _sync_sweep_counters(self) -> None:
        """Fold ``sweep_counts()`` into per-shard counters.

        Works on every transport (shm included, which has no worker
        snapshot channel): the counter advances by the delta since the
        last sync.  A respawned worker restarts its count at zero; the
        negative delta is skipped and the counter resumes once the new
        incarnation passes the old mark.
        """
        if not self.obs.enabled or self._session is not None \
                or self._closed:
            return
        counts = self._port.sweep_counts()
        for spec in self.specs:
            i = spec.index
            delta = int(counts[i]) - self._obs_sweeps_seen.get(i, 0)
            if delta > 0:
                self.obs.counter(
                    "repro_worker_sweeps_total",
                    "sweeps executed, per shard worker",
                    shard=str(i)).inc(delta)
                self._obs_sweeps_seen[i] = int(counts[i])

    def worker_metrics_snapshots(self) -> list:
        """Latest piggybacked worker snapshots (jsonable dicts)."""
        if self._session is not None or self._closed:
            return []
        return list(self._port.worker_metrics().values())

    def metrics_snapshot(self) -> MetricsSnapshot:
        """Merged view: coordinator registry + every worker snapshot."""
        self._sync_sweep_counters()
        snaps = [self.obs.snapshot()]
        snaps.extend(self.worker_metrics_snapshots())
        return merge_snapshots(snaps)


def solve_dtm_multiproc(plan, b=None, *, shards: int = 2,
                        **solve_kwargs) -> SolveResult:
    """One-shot convenience wrapper: spawn, solve, tear down."""
    with MultiprocDtmRunner(plan, shards=shards) as runner:
        return runner.solve(b, **solve_kwargs)
