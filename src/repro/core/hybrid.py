"""Sync/async hybrid solvers — the paper's §8 future-work proposals.

The conclusion observes VTM (synchronous) converges faster per exchange
than DTM and asks for "some sync-async-mixed approach in the physical
domain (e.g. global-async-local-sync) or time domain (e.g.
async-sync-async-sync)".  Both are implemented here:

* :class:`ClusteredDtmSimulator` — *global-async-local-sync*: subdomains
  are grouped into clusters; inside a cluster waves are exchanged
  synchronously (several VTM sweeps per activation, zero intra-cluster
  delay — one multicore node), while clusters communicate
  asynchronously over the heterogeneous network;
* :class:`PeriodicResyncDtmSimulator` — *async-sync-async*: plain DTM
  interleaved with periodic global re-synchronisations whose cost is
  the slowest link's round delay.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..graph.evs import SplitResult
from ..sim.executor import DtmRunResult, DtmSimulator
from ..sim.network import Topology
from ..sim.processor import ComputeModel, Processor
from ..utils.validation import require
from .convergence import begin_monitor, primary_tol
from .dtl import build_dtlp_network
from .fleet import FleetKernel, build_fleet
from .impedance import as_impedance_strategy
from .local import build_all_local_systems


class ClusterKernel:
    """Synchronous sweep over one cluster of a shared fleet.

    Presents the Processor-facing protocol (receive / solve / dirty);
    one ``solve()`` runs *local_sweeps* synchronous rounds among its
    members — each round a masked :meth:`FleetKernel.solve_all` plus a
    routed emit whose intra-cluster portion is delivered in one batch —
    and returns only the waves that leave the cluster, as
    ``(emission_slot_global, values)`` arrays like a
    :class:`~repro.core.fleet.FleetKernelView`.
    """

    def __init__(self, fleet: FleetKernel, cluster_id: int,
                 members: Sequence[int], cluster_of: Sequence[int],
                 local_sweeps: int = 2, *,
                 dest_cluster: Optional[np.ndarray] = None) -> None:
        require(local_sweeps >= 1, "local_sweeps must be >= 1")
        self.fleet = fleet
        self.cluster_id = cluster_id
        self.members = list(members)
        self.cluster_of = list(cluster_of)
        self.local_sweeps = int(local_sweeps)
        self.dirty = True
        self.n_solves = 0
        self.n_received = 0

        self._member_idx = np.asarray(self.members, dtype=np.int64)
        if dest_cluster is None:
            # per-slot destination cluster; identical for every cluster
            # of a fleet, so the simulator precomputes and shares it
            dest_cluster = np.asarray(self.cluster_of, dtype=np.int64)[
                fleet.route_dest_part]
        self._dest_cluster = dest_cluster
        # emission slots of the members, in (member, slot) order
        self._emit_slots = np.concatenate(
            [fleet.part_slots(q) for q in self.members]) \
            if self.members else np.zeros(0, dtype=np.int64)
        # a member slot's twin lives where its emission is routed, so
        # the external *inboxes* are exactly the externally-routed slots
        ext = self._emit_slots[
            self._dest_cluster[self._emit_slots] != cluster_id]
        self._ext_slots = ext
        #: (member_part, member_slot) per external inbox, in ext order
        self.ext_in: list[tuple[int, int]] = [
            (int(fleet.slot_part[g]),
             int(g - fleet.slot_offsets[fleet.slot_part[g]]))
            for g in ext]
        self._ext_index: dict[tuple[int, int], int] = {
            ps: i for i, ps in enumerate(self.ext_in)}

        n_local = sum(fleet.locals[p].n_local for p in self.members)

        class _L:
            pass

        self.local = _L()
        self.local.n_slots = len(self.ext_in)
        self.local.n_local = n_local

    def ext_slot_of(self, part: int, slot: int) -> int:
        """External slot index for a member's (part, slot) inbox."""
        return self._ext_index[(part, slot)]

    def receive(self, ext_slot: int, value: float) -> None:
        self.fleet.receive_one(int(self._ext_slots[ext_slot]), value)
        self.n_received += 1
        self.dirty = True

    def solve(self) -> tuple[np.ndarray, np.ndarray]:
        fleet = self.fleet
        # latest outbound value per external emission slot wins across
        # re-sweeps (each slot routes to a unique destination)
        out_latest: dict[int, float] = {}
        for _ in range(self.local_sweeps):
            fleet.solve_all(self._member_idx)
            idx, values = fleet.emit_slots(self._emit_slots)
            internal = self._dest_cluster[idx] == self.cluster_id
            fleet.receive_batch(
                fleet.route_dest_slot_global[idx[internal]],
                values[internal])
            for g, v in zip(idx[~internal], values[~internal]):
                out_latest[int(g)] = float(v)
        self.dirty = False
        self.n_solves += 1
        return (np.fromiter(out_latest.keys(), dtype=np.int64,
                            count=len(out_latest)),
                np.fromiter(out_latest.values(), dtype=np.float64,
                            count=len(out_latest)))


class ClusteredDtmSimulator:
    """Global-async-local-sync DTM (paper §8, "physical domain" hybrid).

    Parameters
    ----------
    clusters:
        Partition of subdomain indices into processor groups; cluster
        *i* runs on processor *i* of *topology*.
    local_sweeps:
        Synchronous VTM sweeps a cluster performs per activation.
    """

    def __init__(self, split: SplitResult, topology: Topology,
                 clusters: Sequence[Sequence[int]], *,
                 impedance=1.0, local_sweeps: int = 2,
                 compute: Optional[ComputeModel] = None,
                 min_solve_interval: Optional[float] = None) -> None:
        self.split = split
        self.topology = topology
        self.clusters = [list(c) for c in clusters]
        seen = sorted(q for c in self.clusters for q in c)
        if seen != list(range(split.n_parts)):
            raise ConfigurationError(
                "clusters must partition the subdomain indices exactly")
        if len(self.clusters) > topology.n_procs:
            raise ConfigurationError(
                f"{len(self.clusters)} clusters but only "
                f"{topology.n_procs} processors")
        self.cluster_of = [0] * split.n_parts
        for cid, members in enumerate(self.clusters):
            for q in members:
                self.cluster_of[q] = cid

        z_list = as_impedance_strategy(impedance).assign(split)

        def delay_of(qa: int, qb: int) -> float:
            ca, cb = self.cluster_of[qa], self.cluster_of[qb]
            if ca == cb:
                return 0.0
            return topology.nominal_delay(ca, cb)

        self.network = build_dtlp_network(split, z_list, delay_of)
        self.locals = build_all_local_systems(split, self.network)
        self.fleet = build_fleet(split, self.network, self.locals)
        self.kernels = self.fleet.views()
        dest_cluster = np.asarray(self.cluster_of, dtype=np.int64)[
            self.fleet.route_dest_part]
        self.cluster_kernels = [
            ClusterKernel(self.fleet, cid, members, self.cluster_of,
                          local_sweeps, dest_cluster=dest_cluster)
            for cid, members in enumerate(self.clusters)]

        from ..sim.engine import Engine

        self.engine = Engine()
        if min_solve_interval is None:
            delays = [m.nominal() for m in topology.links.values()]
            min_solve_interval = (min(delays) / 10.0) if delays else 0.0
        self.min_solve_interval = float(min_solve_interval)
        self._n_messages = 0
        self.processors = [
            Processor(self.engine, cid, ck, self._route, compute=compute,
                      min_solve_interval=self.min_solve_interval)
            for cid, ck in enumerate(self.cluster_kernels)]

    def _route(self, src_cluster: int, emitted, t_ready: float) -> None:
        idx, values = emitted
        fleet = self.fleet
        for g, value in zip(idx.tolist(), values.tolist()):
            dest_part = int(fleet.route_dest_part[g])
            dest_cluster = self.cluster_of[dest_part]
            latency = self.topology.sample_delay(src_cluster, dest_cluster)
            ext_slot = self.cluster_kernels[dest_cluster].ext_slot_of(
                dest_part, int(fleet.route_dest_slot_local[g]))
            self._n_messages += 1
            self.engine.schedule_at(
                t_ready + latency,
                self.processors[dest_cluster].deliver, ext_slot, value)

    def swap_rhs(self, b, *, waves=None) -> None:
        """Re-target the hybrid at a new right-hand side and reset.

        Locals keep their factors (one back-substitution each), the
        fleet's ``u0`` stacks are re-packed, the wave state restarts
        from zero (or *waves* for a warm start), and a fresh engine and
        processor set are wired so :meth:`run` can be called again.
        ``self.split`` is re-dressed with *b*, so a subsequent
        :meth:`run` without ``reference=`` converges against the new
        system's solution.
        """
        rhs_list = self.split.spread_sources(b)
        self.fleet.swap_rhs(rhs_list, reset=True)
        self.split = self.split.with_sources(b, rhs_list)
        self.reset(waves=waves)

    def reset(self, waves=None) -> None:
        """Fresh engine/processors (and wave state) for a re-run."""
        from ..sim.engine import Engine

        self.fleet.reset_state(waves)
        for ck in self.cluster_kernels:
            ck.dirty = True
            ck.n_solves = 0
            ck.n_received = 0
        self.engine = Engine()
        self._n_messages = 0
        self.processors = [
            Processor(self.engine, cid, ck, self._route,
                      compute=self.processors[cid].compute,
                      min_solve_interval=self.min_solve_interval)
            for cid, ck in enumerate(self.cluster_kernels)]

    def current_solution(self) -> np.ndarray:
        return self.split.gather([k.full_state() for k in self.kernels])

    def run(self, t_max: float, *, tol: Optional[float] = None,
            reference: Optional[np.ndarray] = None,
            stopping=None,
            sample_interval: Optional[float] = None) -> DtmRunResult:
        if t_max <= 0:
            raise ConfigurationError("t_max must be positive")
        rule, monitor, _ = begin_monitor(stopping, tol=tol,
                                         graph=self.split.graph,
                                         reference=reference)
        if sample_interval is None:
            sample_interval = t_max / 256.0

        from ..sim.trace import ErrorObserver

        observer = ErrorObserver(self.engine, self.split, self.kernels,
                                 monitor, sample_interval,
                                 waves_fn=lambda: self.fleet.waves.copy())
        observer.install()
        for p in self.processors:
            p.start()
        t_end = self.engine.run(until=t_max, max_events=20_000_000)
        event = monitor.finalize(
            max(t_end, monitor.series.times[-1]
                if len(monitor.series) else t_end), observer.probe())
        eff_tol = primary_tol(rule)  # see DtmSimulator.run
        return DtmRunResult(
            x=self.current_solution(), errors=monitor.series,
            converged=event is not None and event.converged, t_end=t_end,
            time_to_tol=(monitor.series.first_time_below(eff_tol)
                         if eff_tol is not None else None),
            n_solves=sum(p.n_solves for p in self.processors),
            n_messages=self._n_messages,
            n_events=self.engine.n_events_processed,
            stopped_by=event.rule if event is not None else None,
            stop_metric=(event.metric if event is not None
                         else (monitor.metric
                               if len(monitor.series) else None)),
            stats={"n_clusters": len(self.clusters),
                   "local_sweeps": self.cluster_kernels[0].local_sweeps
                   if self.cluster_kernels else 0,
                   "quiescent": observer.stopped_quiescent})


class PeriodicResyncDtmSimulator(DtmSimulator):
    """DTM with periodic global re-synchronisation (§8 "time domain").

    Every ``resync_period``, all subdomains' freshest boundary
    conditions are redistributed after ``resync_latency`` (default: the
    slowest link delay — the price of the global exchange).
    """

    def __init__(self, split: SplitResult, topology: Topology, *,
                 resync_period: float, resync_latency: float | None = None,
                 **kwargs) -> None:
        super().__init__(split, topology, **kwargs)
        if resync_period <= 0:
            raise ConfigurationError("resync_period must be positive")
        self.resync_period = float(resync_period)
        if resync_latency is None:
            resync_latency = self.topology.delay_stats()["max"]
        self.resync_latency = float(resync_latency)
        self.n_resyncs = 0

    def _install_extras(self) -> None:
        self.engine.schedule_at(self.resync_period, self._resync)

    def _resync(self) -> None:
        """Global exchange: everyone's current waves delivered together.

        The whole fleet solves once and every emitted wave is scheduled
        as a batchable message entry.
        """
        self.n_resyncs += 1
        t_arrive = self.engine.now + self.resync_latency
        self.fleet.solve_all()
        dest, values = self.fleet.emit_all()
        self._n_messages += dest.size
        for i in range(dest.size):
            self.engine.schedule_message(t_arrive, int(dest[i]),
                                         float(values[i]))
        self.engine.schedule_after(self.resync_period, self._resync)
