"""Observers: error sampling, port probes and message logging.

Observers are the measurement layer of the simulator.  They do the
things the paper's figures need — RMS-error-vs-time curves (Figs 8, 12,
14), per-port potential traces (Fig 8) — plus a message log that lets
the Table 1 compliance bench assert DTM's structural properties (no
barriers, N2N-only traffic, arrival-triggered solves).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..core.convergence import RuleMonitor, StateProbe
from ..errors import ValidationError
from ..utils.timeseries import TimeSeries
from .engine import Engine


class ErrorObserver:
    """Samples the global solution on a fixed time grid.

    *solution_fn* assembles the solution (one batched full-state pass
    and a gather), so it runs at observer cadence, not per event, and
    only on samples where the stopping rule's
    :class:`~repro.core.convergence.RuleMonitor` asks for the state.
    When the monitor fires, the engine is stopped early.
    """

    def __init__(self, engine: Engine, solution_fn,
                 monitor: RuleMonitor, interval: float, *,
                 detect_quiescence: bool = True,
                 waves_fn=None) -> None:
        if interval <= 0:
            raise ValidationError("observer interval must be positive")
        self.engine = engine
        self.current_solution = solution_fn
        self.monitor = monitor
        self.interval = float(interval)
        self.detect_quiescence = detect_quiescence
        self.stopped_quiescent = False
        self._waves_fn = waves_fn

    def install(self) -> None:
        self.engine.schedule_at(self.engine.now, self._sample)

    def probe(self) -> StateProbe:
        """Lazy state view for rule monitors at the current instant."""
        return StateProbe(self.current_solution, self._waves_fn)

    def _sample(self) -> None:
        if self.monitor.update(self.engine.now, self.probe()) is not None:
            self.engine.stop()
            return
        if self.detect_quiescence and self.engine.idle:
            # the observer's own event was the only one left: no message
            # or solve is pending anywhere (send-threshold traffic died)
            self.stopped_quiescent = True
            self.engine.stop()
            return
        self.engine.schedule_after(self.interval, self._sample)


class PortProbe:
    """Records the potential of chosen (part, global vertex) copies.

    Produces the x₂ₐ(t), x₂ᵦ(t), ... traces of paper Fig 8.  Hooked into
    every processor solve, so the trace has event resolution.
    """

    def __init__(self, split, targets: Sequence[tuple[int, int]]) -> None:
        """*targets*: (part, global_vertex) pairs to trace."""
        self.series: dict[tuple[int, int], TimeSeries] = {}
        self._local_rows: dict[int, list[tuple[int, tuple[int, int]]]] = {}
        for part, vertex in targets:
            sub = split.subdomains[part]
            row = sub.local_index_of(vertex)
            if row >= sub.n_ports:
                raise ValidationError(
                    f"vertex {vertex} is not a port of subdomain {part}")
            key = (part, vertex)
            self.series[key] = TimeSeries(f"u[part={part},v={vertex}]")
            self._local_rows.setdefault(part, []).append((row, key))

    def on_solve(self, part: int, t: float, kernel) -> None:
        """Processor solve hook."""
        for row, key in self._local_rows.get(part, []):
            self.series[key].append(t, float(kernel.u_ports[row]))

    def trace(self, part: int, vertex: int) -> TimeSeries:
        return self.series[(part, vertex)]


@dataclass(frozen=True)
class MessageRecord:
    """One wave transmission for the compliance log."""

    t_send: float
    t_arrive: float
    src_proc: int
    dst_proc: int
    dtlp_index: int
    value: float


@dataclass
class MessageLog:
    """Optional log of every message (Table 1 compliance evidence)."""

    records: list[MessageRecord] = field(default_factory=list)
    enabled: bool = True

    def record(self, rec: MessageRecord) -> None:
        if self.enabled:
            self.records.append(rec)

    def extend(self, t_send: float, t_arrive, src_proc: int, dst_proc,
               dtlp_index, values) -> None:
        """Append one emission's messages (columns in emission order)."""
        if self.enabled:
            cols = (np.asarray(c).tolist()
                    for c in (t_arrive, dst_proc, dtlp_index, values))
            self.records.extend(MessageRecord(t_send, t, src_proc, dst, k, v)
                                for t, dst, k, v in zip(*cols))

    def __len__(self) -> int:
        return len(self.records)

    # ------------------------------------------------------------------
    # Table 1 structural assertions
    # ------------------------------------------------------------------
    def pairwise_traffic(self) -> dict[tuple[int, int], int]:
        """Message count per directed processor pair."""
        out: dict[tuple[int, int], int] = {}
        for r in self.records:
            key = (r.src_proc, r.dst_proc)
            out[key] = out.get(key, 0) + 1
        return out

    def is_n2n_only(self, allowed_pairs: set[tuple[int, int]]) -> bool:
        """True iff every message used an allowed (neighbouring) pair."""
        return all((r.src_proc, r.dst_proc) in allowed_pairs
                   for r in self.records)

    def no_broadcast(self, n_procs: int) -> bool:
        """True iff no processor ever messaged every other processor."""
        if n_procs <= 2:
            return True
        fanout: dict[int, set[int]] = {}
        for r in self.records:
            fanout.setdefault(r.src_proc, set()).add(r.dst_proc)
        return all(len(dsts) < n_procs - 1 for dsts in fanout.values())

    def delays_observed(self) -> dict[tuple[int, int], list[float]]:
        """Observed per-pair network latencies (arrive − send)."""
        out: dict[tuple[int, int], list[float]] = {}
        for r in self.records:
            out.setdefault((r.src_proc, r.dst_proc), []).append(
                r.t_arrive - r.t_send)
        return out


@dataclass(frozen=True)
class ShardReport:
    """Per-shard diagnostics of one multiprocess solve.

    The sharded runtime owns no per-event log (workers free-run), so
    the measurement story is coarser than the simulator's: sweep
    counts, the part range each worker owned, and the flat state-row
    slice it published through shared memory.
    """

    shard: int
    part_lo: int
    part_hi: int
    sweeps: int
    n_slots: int
    state_rows: int

    @property
    def n_parts(self) -> int:
        return self.part_hi - self.part_lo

    @property
    def subdomain_solves(self) -> int:
        """Subdomain resolves this shard performed (sweeps x parts)."""
        return self.sweeps * self.n_parts


def merge_shard_series(series_list: Sequence[TimeSeries],
                       name: str = "residual") -> TimeSeries:
    """Merge per-round monitor traces into one diagnostic series.

    Rounds are sequential in wall time, so a simple ordered re-append
    suffices; same-instant duplicates collapse latest-wins (the
    :class:`TimeSeries` convention).
    """
    out = TimeSeries(name)
    for series in series_list:
        for t, v in zip(series.times, series.values):
            out.append(float(t), float(v))
    return out


@dataclass
class SolveLog:
    """Times at which each processor solved (Table 1 asynchrony check)."""

    times: dict[int, list[float]] = field(default_factory=dict)

    def on_solve(self, part: int, t: float, kernel) -> None:
        self.times.setdefault(part, []).append(t)

    def lockstep_fraction(self, atol: float = 1e-12) -> float:
        """Fraction of solve instants shared by *all* processors.

        A synchronous (barrier) algorithm has fraction ≈ 1 after the
        start; DTM on a heterogeneous network should be ≈ 0 (only the
        common t=0 start).
        """
        if not self.times:
            return 0.0
        sets = [set(np.round(np.asarray(v) / max(atol, 1e-12)).astype(np.int64)
                    .tolist()) for v in self.times.values()]
        common = set.intersection(*sets) if sets else set()
        total = max(len(s) for s in sets)
        return len(common) / total if total else 0.0
