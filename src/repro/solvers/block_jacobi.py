"""Block-Jacobi (additive Schwarz) — synchronous and asynchronous.

The synchronous version is the textbook non-overlapping additive
Schwarz iteration; the asynchronous version runs the same kernel on the
discrete-event machine, updating each block whenever stale neighbour
values arrive (Baudet-style chaotic relaxation).  The paper's §1 claims
classic asynchronous iterations are "not comparable to the synchronous
ones" — the comparison bench quantifies that against DTM on the same
topology.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..core.convergence import ConvergenceTracker
from ..errors import ConfigurationError
from ..graph.electric import ElectricGraph
from ..graph.partition import Partition
from ..sim.engine import Engine
from ..sim.network import Topology
from ..sim.processor import ComputeModel, Processor
from ..utils.validation import require
from .base import BaselineResult, BlockStructure, build_block_structure, \
    reference_for


@dataclass
class BjMessage:
    """One boundary value on the wire."""

    dest_part: int
    dest_slot: int
    value: float
    src_part: int


class BlockJacobiKernel:
    """Per-subdomain block-relaxation state machine.

    Speaks the :class:`~repro.sim.processor.Processor` protocol
    (receive / solve / dirty), so the same processor model drives it.
    """

    def __init__(self, structure: BlockStructure, part: int,
                 damping: float = 1.0) -> None:
        require(0.0 < damping <= 1.0, "damping must lie in (0, 1]")
        self.structure = structure
        self.part = part
        self.damping = float(damping)
        self.x_local = np.zeros(structure.owned[part].size)
        self.x_ext = np.zeros(structure.ext_vertices[part].size)
        self.dirty = True
        self.n_solves = 0
        self.n_received = 0

        class _L:  # compute-model shim: slots = externals, n = owned
            n_slots = self.x_ext.size
            n_local = self.x_local.size

        self.local = _L()

    def receive(self, slot: int, value: float) -> None:
        self.x_ext[slot] = value
        self.n_received += 1
        self.dirty = True

    def solve(self) -> list[BjMessage]:
        s = self.structure
        target = s.x0[self.part] - (s.M[self.part] @ self.x_ext
                                    if self.x_ext.size else 0.0)
        if self.damping == 1.0:
            self.x_local = target
        else:
            self.x_local = ((1.0 - self.damping) * self.x_local
                            + self.damping * target)
        self.n_solves += 1
        self.dirty = False
        messages = []
        for local_row, dests in s.send_plan[self.part]:
            value = float(self.x_local[local_row])
            for dest_part, dest_slot in dests:
                messages.append(BjMessage(dest_part=dest_part,
                                          dest_slot=dest_slot, value=value,
                                          src_part=self.part))
        return messages

    def full_state(self) -> np.ndarray:
        return self.x_local


def _gather(structure: BlockStructure, kernels) -> np.ndarray:
    x = np.zeros(structure.n)
    for q, k in enumerate(kernels):
        x[structure.owned[q]] = k.x_local
    return x


# ----------------------------------------------------------------------
# synchronous additive Schwarz
# ----------------------------------------------------------------------
def solve_block_jacobi(graph: ElectricGraph, partition: Partition, *,
                       tol: float = 1e-8, max_iterations: int = 5000,
                       damping: float = 1.0,
                       reference: Optional[np.ndarray] = None
                       ) -> BaselineResult:
    """Synchronous block-Jacobi iteration to tolerance."""
    structure = build_block_structure(graph, partition)
    kernels = [BlockJacobiKernel(structure, q, damping)
               for q in range(structure.n_parts)]
    if reference is None:
        reference = reference_for(graph)
    tracker = ConvergenceTracker(reference=reference, tol=tol)
    it = 0
    err0 = tracker.record(0.0, _gather(structure, kernels))
    diverged = False
    while it < max_iterations and not tracker.converged:
        messages = []
        for k in kernels:
            messages.extend(k.solve())
        for m in messages:
            kernels[m.dest_part].receive(m.dest_slot, m.value)
        it += 1
        err = tracker.record(float(it), _gather(structure, kernels))
        if not np.isfinite(err) or err > 1e6 * max(err0, 1.0):
            diverged = True
            break
    return BaselineResult(x=_gather(structure, kernels),
                          errors=tracker.series,
                          converged=tracker.converged, iterations=it,
                          t_end=float(it),
                          time_to_tol=tracker.time_to_tol() if tol else None,
                          n_solves=sum(k.n_solves for k in kernels),
                          diverged=diverged)


# ----------------------------------------------------------------------
# asynchronous block-Jacobi on the simulated machine
# ----------------------------------------------------------------------
class AsyncBlockJacobiSimulator:
    """Chaotic block relaxation on a heterogeneous topology.

    Same executor pattern as :class:`~repro.sim.executor.DtmSimulator`,
    but exchanging raw boundary potentials instead of DTL waves — i.e.
    the traditional asynchronous iteration DTM is compared against.
    """

    def __init__(self, graph: ElectricGraph, partition: Partition,
                 topology: Topology, *, damping: float = 1.0,
                 compute: Optional[ComputeModel] = None,
                 min_solve_interval: Optional[float] = None) -> None:
        self.graph = graph
        self.structure = build_block_structure(graph, partition)
        if self.structure.n_parts > topology.n_procs:
            raise ConfigurationError(
                f"{self.structure.n_parts} blocks but only "
                f"{topology.n_procs} processors")
        self.topology = topology
        self.kernels = [BlockJacobiKernel(self.structure, q, damping)
                        for q in range(self.structure.n_parts)]
        self.engine = Engine()
        if min_solve_interval is None:
            delays = [m.nominal() for m in topology.links.values()]
            min_solve_interval = (min(delays) / 10.0) if delays else 0.0
        self.min_solve_interval = float(min_solve_interval)
        self._n_messages = 0
        self.processors = [
            Processor(self.engine, q, k, self._route, compute=compute,
                      min_solve_interval=self.min_solve_interval)
            for q, k in enumerate(self.kernels)]

    def _route(self, src_proc: int, messages, t_ready: float) -> None:
        for m in messages:
            latency = self.topology.sample_delay(src_proc, m.dest_part)
            self._n_messages += 1
            self.engine.schedule_at(
                t_ready + latency, self.processors[m.dest_part].deliver,
                m.dest_slot, m.value)

    def current_solution(self) -> np.ndarray:
        return _gather(self.structure, self.kernels)

    def run(self, t_max: float, *, tol: Optional[float] = None,
            reference: Optional[np.ndarray] = None,
            sample_interval: Optional[float] = None) -> BaselineResult:
        if t_max <= 0:
            raise ConfigurationError("t_max must be positive")
        if reference is None:
            reference = reference_for(self.graph)
        if sample_interval is None:
            sample_interval = t_max / 256.0
        tracker = ConvergenceTracker(reference=reference, tol=tol)

        def sample():
            err = tracker.record(self.engine.now, self.current_solution())
            if tracker.converged or not np.isfinite(err) or err > 1e9:
                self.engine.stop()
                return
            self.engine.schedule_after(sample_interval, sample)

        self.engine.schedule_at(0.0, sample)
        for p in self.processors:
            p.start()
        t_end = self.engine.run(until=t_max, max_events=20_000_000)
        tracker.record(max(t_end, tracker.series.times[-1]),
                       self.current_solution())
        final = tracker.final_error
        return BaselineResult(
            x=self.current_solution(), errors=tracker.series,
            converged=tracker.converged, t_end=t_end,
            time_to_tol=tracker.time_to_tol() if tol else None,
            n_solves=sum(p.n_solves for p in self.processors),
            n_messages=self._n_messages,
            diverged=bool(not np.isfinite(final) or final > 1e6))
