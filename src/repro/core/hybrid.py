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

from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from ..errors import ConfigurationError
from ..sim.executor import DtmRunResult, DtmSimulator
from ..sim.processor import ComputeModel
from ..utils.validation import require
from .fleet import FleetKernel


class ClusterKernel:
    """Synchronous sweep over one cluster of a shared fleet.

    Presents the Processor-facing protocol (solve / dirty; arrivals are
    written into the fleet by the simulator's batched delivery);
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

        self._member_idx = np.asarray(self.members, dtype=np.int64)
        self._dest_cluster = dest_cluster
        # emission slots of the members, in (member, slot) order
        self._emit_slots = np.concatenate(
            [fleet.part_slots(q) for q in self.members]) \
            if self.members else np.zeros(0, dtype=np.int64)
        # a member slot's twin lives where its emission is routed, so
        # the external *inboxes* are exactly the externally-routed slots
        self._ext_slots = self._emit_slots[
            self._dest_cluster[self._emit_slots] != cluster_id]

        #: the sizes a ComputeModel prices one activation by
        self.local = SimpleNamespace(
            n_slots=self._ext_slots.size,
            n_local=sum(fleet.locals[p].n_local for p in self.members))

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
    processor per cluster drives a :class:`ClusterKernel`, and the waves
    that leave a cluster travel in bundles to the destination clusters'
    processors.
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
        """Fresh cluster kernels, then the base wiring over them."""
        dest_cluster = np.asarray(self.cluster_of, dtype=np.int64)[
            self.fleet.route_dest_part]
        self.cluster_kernels = [
            ClusterKernel(self.fleet, cid, members, dest_cluster,
                          self.local_sweeps)
            for cid, members in enumerate(self.clusters)]
        super()._wire_engine()

    def _processor_kernels(self):
        return zip(self.cluster_proc, self.cluster_kernels)

    def _emission_groups(self, q: int) -> None:
        """A cluster's emission mixes its members' slots, so it groups
        by arrival time at send time."""
        return None

    def _deliver_batch(self, dest_slots, values) -> None:
        """Batched delivery; each destination cluster is marked dirty
        and woken in first-occurrence order (a second notify of one
        cluster only counts arrivals: its solve is already pending)."""
        parts, counts = self.fleet.receive_batch(dest_slots, values,
                                                 notify=True)
        for q, c in zip(parts.tolist(), counts.tolist()):
            cid = self.cluster_of[q]
            self.cluster_kernels[cid].dirty = True
            self.processors[cid].notify(c)

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

        The whole fleet solves once and every emitted wave travels in
        one bundle.
        """
        self.n_resyncs += 1
        self.fleet.solve_all()
        dest, values = self.fleet.emit_all()
        self._n_messages += dest.size
        if dest.size:
            self.engine.schedule_bundles(
                [self.engine.now + self.resync_latency], [dest], [values],
                dest.size)
        self.engine.schedule_after(self.resync_period, self._resync)
