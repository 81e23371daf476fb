"""Per-subdomain oracle for the fleet kernel (test-only).

The package executes DTM on one struct-of-arrays
:class:`~repro.core.fleet.FleetKernel`.  This module keeps the literal
reading of paper Table 1 beside it — one :class:`DtmKernel` per
subdomain, one :class:`WaveMessage` per wave, one ``receive`` per
delivery — so the tests and the kernel micro-benchmark's equivalence
guard can assert that batching changes no bit of a trajectory:

* :func:`build_kernels` + a hand-rolled sweep is the synchronous oracle;
* :class:`PerKernelSimulator` is :class:`~repro.sim.executor.DtmSimulator`
  with its processors driving :class:`DtmKernel` objects and every wave
  scheduled as its own ``Processor.deliver`` callback — the asynchronous
  oracle for the simulator's batched delivery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.local import LocalSystem
from repro.errors import ValidationError
from repro.sim.executor import DtmSimulator
from repro.sim.trace import MessageRecord


@dataclass
class WaveMessage:
    """One wave in flight on a DTL."""

    dest_part: int
    dest_slot: int
    value: float
    dtlp_index: int
    src_part: int


@dataclass
class DtmKernel:
    """Table 1's per-subgraph loop body, as a passive state machine.

    *routes* is the outgoing routing per slot, ``(dest_part, dest_slot,
    dtlp_index, delay)``, as
    :meth:`repro.core.dtl.DtlpNetwork.routes_from` produces it.
    """

    local: LocalSystem
    routes: Sequence[tuple[int, int, int, float]]
    #: send only waves that changed by more than this (0 = always send)
    send_threshold: float = 0.0

    waves: np.ndarray = field(init=False)
    u_ports: np.ndarray = field(init=False)
    last_sent: np.ndarray = field(init=False)
    n_solves: int = field(init=False, default=0)
    n_received: int = field(init=False, default=0)
    dirty: bool = field(init=False, default=True)

    def __post_init__(self) -> None:
        if len(self.routes) != self.local.n_slots:
            raise ValidationError(
                f"kernel of part {self.local.part} has "
                f"{self.local.n_slots} slots but {len(self.routes)} routes"
            )
        if self.send_threshold < 0:
            raise ValidationError("send_threshold must be >= 0")
        # zero initial boundary conditions: u(0) = ω(0) = 0 ⇒ waves 0
        self.waves = np.zeros(self.local.n_slots)
        self.u_ports = np.zeros(self.local.n_ports)
        self.last_sent = np.full(self.local.n_slots, np.nan)

    @property
    def part(self) -> int:
        return self.local.part

    def receive(self, slot: int, value: float) -> None:
        """Table 1 step 3: store the wave received on *slot*."""
        if not 0 <= slot < self.local.n_slots:
            raise ValidationError(
                f"part {self.part}: slot {slot} out of range "
                f"[0, {self.local.n_slots})"
            )
        self.waves[slot] = value
        self.n_received += 1
        self.dirty = True

    def solve(self) -> list[WaveMessage]:
        """Table 1 steps 3.1-3.2: resolve, then one message per slot.

        Slots whose wave moved by no more than ``send_threshold`` since
        it was last sent are suppressed.
        """
        self.u_ports = self.local.solve_ports(self.waves)
        self.n_solves += 1
        self.dirty = False
        outgoing = self.local.outgoing_waves(self.waves, self.u_ports)
        messages = []
        for slot, (dest_part, dest_slot, dtlp, _delay) in enumerate(
            self.routes
        ):
            value = float(outgoing[slot])
            prev = self.last_sent[slot]
            if (
                self.send_threshold > 0.0
                and np.isfinite(prev)
                and abs(value - prev) <= self.send_threshold
            ):
                continue
            self.last_sent[slot] = value
            messages.append(
                WaveMessage(
                    dest_part=dest_part,
                    dest_slot=dest_slot,
                    value=value,
                    dtlp_index=dtlp,
                    src_part=self.part,
                )
            )
        return messages

    def full_state(self) -> np.ndarray:
        """Current full local state ``[u; y]`` (materialises interiors)."""
        return self.local.full_state(self.waves)

    def port_potentials(self) -> np.ndarray:
        return self.u_ports.copy()

    def port_currents(self) -> np.ndarray:
        return self.local.port_currents(self.waves, self.u_ports)

    def boundary_change(self) -> float:
        """``max |outgoing − last sent|``: zero exactly at quiescence."""
        if self.local.n_slots == 0:
            return 0.0
        out = self.local.outgoing_waves(self.waves, self.u_ports)
        prev = np.where(np.isfinite(self.last_sent), self.last_sent, 0.0)
        return float(np.max(np.abs(out - prev)))


def build_kernels(
    split, network, locals_, *, send_threshold: float = 0.0
) -> list[DtmKernel]:
    """One kernel per subdomain, wired to the DTLP network's routes."""
    return [
        DtmKernel(local, network.routes_from(sub.part), send_threshold)
        for sub, local in zip(split.subdomains, locals_)
    ]


def gather_global_state(split, kernels) -> np.ndarray:
    """Average copies of the kernels' full states into a global vector."""
    return split.gather([k.full_state() for k in kernels])


def per_kernel_sweep(kernels) -> None:
    """One synchronous sweep: every kernel solves, then all deliver."""
    messages = []
    for k in kernels:
        messages.extend(k.solve())
    for m in messages:
        kernels[m.dest_part].receive(m.dest_slot, m.value)


class PerKernelSimulator(DtmSimulator):
    """:class:`DtmSimulator` executed one kernel and one message at a time.

    Network, locals, engine, processors, observers and delay sampling
    are the simulator's own; only execution differs.  Each wiring
    (construction, ``reset``, ``swap_rhs``) builds fresh kernels seeded
    from the fleet's wave state, so warm starts carry over.
    """

    def _wire_engine(self) -> None:
        fleet = self.fleet
        self.kernels = build_kernels(
            self.split,
            self.network,
            self.locals,
            send_threshold=fleet.send_threshold,
        )
        so = fleet.slot_offsets
        for q, k in enumerate(self.kernels):
            k.waves[:] = fleet.waves[so[q] : so[q + 1]]
        super()._wire_engine()

    def _route(self, src_proc: int, messages, t_ready: float) -> None:
        for msg in messages:
            dst_proc = self.placement[msg.dest_part]
            t_arrive = t_ready + self.topology.sample_delay(src_proc, dst_proc)
            self._n_messages += 1
            if self.message_log is not None:
                self.message_log.record(
                    MessageRecord(
                        t_send=t_ready,
                        t_arrive=t_arrive,
                        src_proc=src_proc,
                        dst_proc=dst_proc,
                        dtlp_index=msg.dtlp_index,
                        value=msg.value,
                    )
                )
            self.engine.schedule_at(
                t_arrive,
                self.processors[msg.dest_part].deliver,
                msg.dest_slot,
                msg.value,
            )

    def _current_waves(self) -> np.ndarray:
        return np.concatenate([k.waves for k in self.kernels])
