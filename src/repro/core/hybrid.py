"""Sync/async hybrid solvers — the paper's §8 future-work proposals.

The conclusion observes VTM (synchronous) converges faster per exchange
than DTM and asks for "some sync-async-mixed approach in the physical
domain (e.g. global-async-local-sync) or time domain (e.g.
async-sync-async-sync)".  Both are implemented here, and both run on a
dtm-mode :class:`~repro.plan.SolverPlan`:

* :class:`ClusteredDtmSimulator` — *global-async-local-sync*: the
  plan's placement puts several subdomains on one processor (a
  multicore node, zero intra-node delay, which is what
  :meth:`~repro.sim.network.Topology.nominal_delay` gives a
  processor's link to itself); inside a node waves are exchanged
  synchronously (several VTM sweeps per activation), while nodes
  communicate asynchronously over the heterogeneous network;
* :class:`PeriodicResyncDtmSimulator` — *async-sync-async*: plain DTM
  interleaved with periodic global re-synchronisations whose cost is
  the slowest link's round delay.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..sim.engine import Engine
from ..sim.executor import DtmRunResult, DtmSimulator
from ..sim.processor import ComputeModel, Processor
from ..utils.validation import require
from .fleet import FleetKernel


class ClusterKernel:
    """Synchronous sweep over one cluster of a shared fleet.

    Presents the Processor-facing protocol (receive / solve / dirty);
    one ``solve()`` runs *local_sweeps* synchronous rounds among its
    members — each round a masked :meth:`FleetKernel.solve_all` plus a
    routed emit whose intra-cluster portion is delivered in one batch —
    and returns only the waves that leave the cluster, as
    ``(emission_slot_global, values)`` arrays like a
    :class:`~repro.core.fleet.FleetKernelView`.  *dest_cluster* is the
    destination cluster of every emission slot of the fleet (the same
    array for every cluster, so the simulator builds it once).
    """

    def __init__(self, fleet: FleetKernel, cluster_id: int,
                 members: Sequence[int], dest_cluster: np.ndarray,
                 local_sweeps: int = 2) -> None:
        require(local_sweeps >= 1, "local_sweeps must be >= 1")
        self.fleet = fleet
        self.cluster_id = cluster_id
        self.members = list(members)
        self.local_sweeps = int(local_sweeps)
        self.dirty = True
        self.n_solves = 0
        self.n_received = 0

        self._member_idx = np.asarray(self.members, dtype=np.int64)
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


class ClusteredDtmSimulator(DtmSimulator):
    """Global-async-local-sync DTM (paper §8, "physical domain" hybrid).

    Parameters
    ----------
    plan:
        A dtm-mode :class:`~repro.plan.SolverPlan`; cluster *c* is the
        set of subdomains ``plan.placement`` puts on the *c*-th
        processor in use, and the plan's DTLPs inside a cluster carry
        zero delay.
    local_sweeps:
        Synchronous VTM sweeps a cluster performs per activation.

    Everything but the wiring — monitoring, ``run``, ``reset``,
    ``swap_rhs`` — is :class:`~repro.sim.executor.DtmSimulator`'s: one
    processor per cluster drives a :class:`ClusterKernel`, and a wave
    that leaves a cluster travels as one message to the destination
    cluster's processor.
    """

    def __init__(self, plan, *, local_sweeps: int = 2,
                 compute: Optional[ComputeModel] = None,
                 min_solve_interval: Optional[float] = None) -> None:
        require(local_sweeps >= 1, "local_sweeps must be >= 1")
        self.local_sweeps = int(local_sweeps)
        #: processor of each cluster (the processors the plan uses)
        self.cluster_proc = sorted(set(plan.placement))
        index = {p: cid for cid, p in enumerate(self.cluster_proc)}
        self.cluster_of = [index[p] for p in plan.placement]
        self.clusters = [
            [q for q, c in enumerate(self.cluster_of) if c == cid]
            for cid in range(len(self.cluster_proc))]
        super().__init__(plan, compute=compute,
                         min_solve_interval=min_solve_interval)

    def _wire_engine(self) -> None:
        """Fresh engine, cluster kernels and one processor per cluster."""
        dest_cluster = np.asarray(self.cluster_of, dtype=np.int64)[
            self.fleet.route_dest_part]
        self.cluster_kernels = [
            ClusterKernel(self.fleet, cid, members, dest_cluster,
                          self.local_sweeps)
            for cid, members in enumerate(self.clusters)]
        self.engine = Engine()
        self.message_log = self.solve_log = self.port_probe = None
        self._n_messages = 0
        self.processors = [
            Processor(self.engine, cid, ck, self._route,
                      compute=self._compute,
                      min_solve_interval=self.min_solve_interval)
            for cid, ck in enumerate(self.cluster_kernels)]

    def _route(self, src_cluster: int, emitted, t_ready: float) -> None:
        idx, values = emitted
        fleet = self.fleet
        for g, value in zip(idx.tolist(), values.tolist()):
            dest_part = int(fleet.route_dest_part[g])
            dest_cluster = self.cluster_of[dest_part]
            latency = self.topology.sample_delay(
                self.cluster_proc[src_cluster],
                self.cluster_proc[dest_cluster])
            ext_slot = self.cluster_kernels[dest_cluster].ext_slot_of(
                dest_part, int(fleet.route_dest_slot_local[g]))
            self._n_messages += 1
            self.engine.schedule_at(
                t_ready + latency,
                self.processors[dest_cluster].deliver, ext_slot, value)

    def run(self, t_max: float, **kwargs) -> DtmRunResult:
        res = super().run(t_max, **kwargs)
        res.stats.update(n_clusters=len(self.clusters),
                         local_sweeps=self.local_sweeps)
        return res


class PeriodicResyncDtmSimulator(DtmSimulator):
    """DTM with periodic global re-synchronisation (§8 "time domain").

    Every ``resync_period``, all subdomains' freshest boundary
    conditions are redistributed after ``resync_latency`` (default: the
    slowest link delay — the price of the global exchange).
    """

    def __init__(self, plan, *, resync_period: float,
                 resync_latency: float | None = None, **kwargs) -> None:
        super().__init__(plan, **kwargs)
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
