"""DTM on the simulated parallel machine (paper Fig 10's full pipeline).

A :class:`~repro.plan.SolverPlan` carries the construction §5
describes — EVS subdomains and twin links, one DTLP per twin link whose
delay is the nominal delay of the processor link it rides on (the
*algorithm-architecture delay mapping*), one factored local system per
subdomain.  :class:`DtmSimulator` runs it: each subdomain becomes a
:class:`~repro.sim.processor.Processor` on processor
``plan.placement[q]``, and processors exchange waves through the
topology; no barrier, no broadcast — the engine just plays messages in
time order.

``run()`` returns a :class:`DtmRunResult` carrying the error trace, the
final gathered solution, counters, and any probes that were attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..core.convergence import (
    StopEvent,
    begin_monitor,
    primary_tol,
    reuse_system,
)
from ..errors import ConfigurationError
from ..utils.timeseries import TimeSeries
from .engine import Engine
from .processor import ComputeModel, Processor
from .trace import ErrorObserver, MessageLog, PortProbe, SolveLog


@dataclass
class DtmRunResult:
    """Outcome of one simulated DTM run."""

    x: np.ndarray
    errors: TimeSeries
    converged: bool
    t_end: float
    time_to_tol: Optional[float]
    n_solves: int
    n_messages: int
    n_events: int
    stats: dict = field(default_factory=dict)
    port_probe: Optional[PortProbe] = None
    message_log: Optional[MessageLog] = None
    solve_log: Optional[SolveLog] = None
    #: name of the stopping rule that ended the run (None = horizon or
    #: engine quiescence without a rule firing)
    stopped_by: Optional[str] = None
    #: the firing rule's final metric value (or the primary rule's last
    #: recorded metric when no rule fired)
    stop_metric: Optional[float] = None

    @property
    def final_error(self) -> float:
        return float(self.errors.final) if len(self.errors) else np.inf

    def summary(self) -> str:
        return (f"DTM run: t_end={self.t_end:g}, error={self.final_error:.3e}"
                f", solves={self.n_solves}, messages={self.n_messages}, "
                f"converged={self.converged}")


class DtmSimulator:
    """Asynchronous DTM on a simulated heterogeneous machine.

    Parameters
    ----------
    plan:
        A dtm-mode :class:`~repro.plan.SolverPlan` (``build_plan(split=,
        topology=, impedance=, placement=)``): it fixes the split, the
        machine, the subdomain placement, the DTLP network and the
        factored local systems, so constructing the simulator costs only
        engine/processor wiring.
    compute:
        Per-solve latency model (default: zero-latency solves).
    min_solve_interval:
        Re-solve throttle; default is ``min link delay / 10``, which
        coalesces near-simultaneous arrivals without affecting the
        trajectory at delay scale.
    send_threshold:
        Suppress re-sending waves that changed less than this
        (0 = always send, the paper's behaviour).
    log_messages:
        Keep a full message log (Table 1 compliance evidence).
    probe_ports:
        ``(part, port)`` pairs whose potentials are traced per solve.
    fleet:
        A session-owned :class:`FleetKernel` fork of *plan* whose
        right-hand side is already set (see
        :meth:`FleetKernel.swap_rhs`); omitted, a fresh fork is taken.

    Every subdomain runs on one struct-of-arrays
    :class:`~repro.core.fleet.FleetKernel`: a solve's waves travel as
    one heap bundle per arrival time and simultaneous deliveries land in
    one batched scatter.
    The trajectory is bitwise the one a per-subdomain, per-message
    executor plays (asserted against the oracle in
    ``tests/per_kernel.py``).
    """

    def __init__(self, plan, *,
                 compute: Optional[ComputeModel] = None,
                 min_solve_interval: Optional[float] = None,
                 send_threshold: float = 0.0,
                 log_messages: bool = False,
                 probe_ports: Optional[Sequence[tuple[int, int]]] = None,
                 fleet=None
                 ) -> None:
        if plan.mode != "dtm":
            raise ConfigurationError(
                f"DtmSimulator needs a dtm-mode plan, got {plan.mode!r}")
        self.plan = plan
        self.split = plan.split
        self.topology = plan.topology
        self.placement = plan.placement
        self.network = plan.network
        self.fleet = fleet if fleet is not None else \
            plan.fork_fleet(send_threshold=send_threshold)
        self.locals = self.fleet.locals
        self.kernels = self.fleet.views()

        #: destination processor of every emission slot
        self._slot_dst_proc = np.asarray(
            self.placement, dtype=np.int64)[self.fleet.route_dest_part]
        self._emission = [self._emission_groups(q)
                          for q in range(self.fleet.n_parts)]

        self._log_messages = bool(log_messages)
        self._probe_targets = probe_ports
        self._compute = compute

        if min_solve_interval is None:
            used = [d for dtlp in self.network.dtlps
                    for d in (dtlp.delay_ab, dtlp.delay_ba) if d > 0]
            min_solve_interval = (min(used) / 10.0) if used else 0.0
        self.min_solve_interval = float(min_solve_interval)
        self._wire_engine()

    # ------------------------------------------------------------------
    def _wire_engine(self) -> None:
        """Fresh engine, observers and one processor per kernel."""
        self.engine = Engine(self._deliver_batch)
        self.message_log = MessageLog() if self._log_messages else None
        self.solve_log = SolveLog() if self._log_messages else None
        self.port_probe = PortProbe(self.split, self._probe_targets) \
            if self._probe_targets else None

        hooks = [h for h in (self.port_probe, self.solve_log) if h]

        def solve_hook(part: int, t: float, kernel) -> None:
            for h in hooks:
                h.on_solve(part, t, kernel)

        send = self._route if self.message_log is None \
            else self._route_logged
        self._n_messages = 0
        self.processors = [
            Processor(self.engine, proc, kernel, send, compute=self._compute,
                      min_solve_interval=self.min_solve_interval,
                      solve_hook=solve_hook if hooks else None)
            for proc, kernel in self._processor_kernels()]

    def _processor_kernels(self):
        """``(processor, kernel)`` of every simulated processor."""
        return zip(self.placement, self.kernels)

    def reset(self, waves=None) -> None:
        """Return the simulator to t = 0 for another :meth:`run`.

        The wave state restarts from zero boundary conditions (or
        *waves* for a warm start) and a fresh engine/processor set is
        wired; the factored locals, routing tables and topology are
        untouched.
        """
        self.fleet.reset_state(waves)
        self._wire_engine()

    def swap_rhs(self, b, *, waves=None) -> None:
        """Point the simulator at a new right-hand side and reset.

        One back-substitution per subdomain against the retained
        factors (no re-factorization) plus a ``u0`` re-pack.
        ``self.split`` is re-dressed with *b*, so a subsequent
        :meth:`run` without an explicit ``reference=`` tracks
        convergence against the *new* system's solution.
        """
        rhs_list = self.split.spread_sources(b)
        self.fleet.swap_rhs(rhs_list, reset=False)
        self.split = self.split.with_sources(b, rhs_list)
        self.reset(waves=waves)

    # ------------------------------------------------------------------
    def _emission_groups(self, q: int):
        """Part *q*'s emission positions grouped by link delay, as
        ``(delays, sels, dests)`` lists; None when a jittered link makes
        the part group by arrival time at solve time."""
        s0, s1 = self.fleet.slot_offsets[q], self.fleet.slot_offsets[q + 1]
        src, dst = self.placement[q], self._slot_dst_proc[s0:s1]
        if any(self.topology.is_jittered(src, d) for d in set(dst.tolist())):
            return None
        delays, inv = np.unique(self.topology.sample_delays(src, dst),
                                return_inverse=True)
        sels = [np.flatnonzero(inv == k) for k in range(delays.size)]
        return (delays.tolist(), sels,
                [self.fleet.route_dest_slot_global[s0 + s] for s in sels])

    def _route(self, src_proc: int, emitted, t_ready: float):
        """Send one solve's waves: *emitted* is ``(emission_slots, values)``.

        One heap bundle per arrival time, addressed by *global*
        destination slot (delivered by :meth:`_deliver_batch`).  Returns
        ``(times, sels)``, ``sels[k]`` indexing the waves arriving at
        ``times[k]``, or None when nothing was sent.
        """
        idx, values = emitted
        n = idx.size
        if n == 0:
            return None
        self._n_messages += n
        q = self.fleet.slot_part[idx[0]]
        if self._emission[q] is None:
            return self._route_by_arrival(src_proc, idx, values, t_ready)
        delays, sels, dests = self._emission[q]
        times = [t_ready + d for d in delays]
        if len(set(times)) < len(times):  # distinct delays, one arrival
            return self._route_by_arrival(src_proc, idx, values, t_ready)
        s0, s1 = self.fleet.slot_offsets[q], self.fleet.slot_offsets[q + 1]
        if n < s1 - s0:
            # send_threshold held waves back: mask them out of each group
            at = np.full(s1 - s0, -1)
            at[idx - s0] = np.arange(n)  # emission position -> wave index
            groups = [(t, at[s], d) for t, s, d in zip(times, sels, dests)]
            times, sels, dests = zip(*[(t, a[a >= 0], d[a >= 0])
                                       for t, a, d in groups if a.max() >= 0])
        self.engine.schedule_bundles(times, dests, [values[s] for s in sels],
                                     n)
        return times, sels

    def _route_by_arrival(self, src_proc: int, idx: np.ndarray,
                          values: np.ndarray, t_ready: float):
        """:meth:`_route` grouping by arrival times drawn at send time."""
        times, inv = np.unique(t_ready + self.topology.sample_delays(
            src_proc, self._slot_dst_proc[idx]), return_inverse=True)
        sels = np.split(np.argsort(inv, kind="stable"),
                        np.cumsum(np.bincount(inv))[:-1])
        dest, times = self.fleet.route_dest_slot_global[idx], times.tolist()
        self.engine.schedule_bundles(times, [dest[s] for s in sels],
                                     [values[s] for s in sels], idx.size)
        return times, sels

    def _route_logged(self, src_proc: int, emitted, t_ready: float) -> None:
        """:meth:`_route`, then one :meth:`MessageLog.extend` per solve."""
        bundles = self._route(src_proc, emitted, t_ready)
        if bundles is not None:
            idx, values = emitted
            t_arrive = np.empty(idx.size)
            for t, sel in zip(*bundles):
                t_arrive[sel] = t
            self.message_log.extend(t_ready, t_arrive, src_proc,
                                    self._slot_dst_proc[idx],
                                    self.fleet.route_dtlp[idx], values)

    def _deliver_batch(self, dest_slots: np.ndarray,
                       values: np.ndarray) -> None:
        """Engine message sink: one scatter for a simultaneous batch."""
        parts, counts = self.fleet.receive_batch(dest_slots, values,
                                                 notify=True)
        for q, c in zip(parts, counts):
            self.processors[q].notify(int(c))

    # ------------------------------------------------------------------
    def _install_extras(self) -> None:
        """Hook for subclasses to schedule extra behaviour before a run
        (e.g. the periodic re-synchronisations of the §8 hybrid)."""

    def current_solution(self) -> np.ndarray:
        """Global solution estimate from the kernels' current state."""
        return self.split.gather([k.full_state() for k in self.kernels])

    def _current_waves(self) -> np.ndarray:
        """Snapshot of the global wave vector (for quiescence rules)."""
        return self.fleet.waves.copy()

    def run(self, t_max: float, *, tol: Optional[float] = None,
            reference: Optional[np.ndarray] = None,
            stopping=None,
            sample_interval: Optional[float] = None,
            max_events: Optional[int] = None) -> DtmRunResult:
        """Simulate until *t_max*, the stopping rule, or quiescence.

        ``stopping`` selects the termination criterion (see
        :mod:`repro.core.convergence`); the default is the paper's
        reference-based rule at *tol*, for which ``reference`` defaults
        to the direct solution of the original system.  Reference-free
        rules (``ResidualRule``, ``QuiescenceRule``) never compute a
        reference at all.  ``sample_interval`` defaults to
        ``t_max / 256``.
        """
        if t_max <= 0:
            raise ConfigurationError("t_max must be positive")
        rule, monitor, _ = begin_monitor(
            stopping, tol=tol, graph=self.split.graph,
            system=reuse_system(self.plan, self.split.graph),
            reference=reference)
        if sample_interval is None:
            sample_interval = t_max / 256.0
        observer = ErrorObserver(self.engine, self.split, self.kernels,
                                 monitor, sample_interval,
                                 waves_fn=self._current_waves)
        observer.install()
        self._install_extras()
        for proc in self.processors:
            proc.start()
        if max_events is None:
            # generous runaway guard: solves + per-slot messages if every
            # processor solved at the throttle rate for the whole horizon
            horizon_solves = (t_max / self.min_solve_interval
                              if self.min_solve_interval > 0 else 1e6)
            per_round = self.split.n_parts + 2 * len(self.network.dtlps)
            max_events = int(4 * min(horizon_solves, 1e6) * per_round
                             + 200_000)
        t_end = self.engine.run(until=t_max, max_events=max_events)
        # final sample at the stop time
        final_t = max(t_end, monitor.series.times[-1]
                      if len(monitor.series) else t_end)
        event: Optional[StopEvent] = monitor.finalize(
            final_t, observer.probe())
        # time-to-tolerance is a statement about the PRIMARY metric
        # trace, so it uses that rule's own tolerance (never the
        # run-level reference tol, which lives in a different metric
        # domain for residual/quiescence rules)
        eff_tol = primary_tol(rule)
        return DtmRunResult(
            x=self.current_solution(),
            errors=monitor.series,
            converged=event is not None and event.converged,
            t_end=t_end,
            time_to_tol=(monitor.series.first_time_below(eff_tol)
                         if eff_tol is not None else None),
            n_solves=sum(p.n_solves for p in self.processors),
            n_messages=self._n_messages,
            n_events=self.engine.n_events_processed,
            stopped_by=event.rule if event is not None else None,
            stop_metric=(event.metric if event is not None
                         else (monitor.metric
                               if len(monitor.series) else None)),
            stats={
                "n_parts": self.split.n_parts,
                "n_dtlps": len(self.network.dtlps),
                "min_solve_interval": self.min_solve_interval,
                "topology": self.topology.name,
                "quiescent": observer.stopped_quiescent,
                **self.topology.delay_stats(),
            },
            port_probe=self.port_probe,
            message_log=self.message_log,
            solve_log=self.solve_log,
        )
