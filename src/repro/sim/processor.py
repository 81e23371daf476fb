"""Processor model: finite compute rate + arrival coalescing.

Table 1's loop is "wait for remote boundary conditions → solve → send".
A real processor cannot resolve faster than its local solve takes, and
messages arriving while it computes wait in the receive queue and are
absorbed by the *next* solve.  :class:`Processor` models exactly that:

* a :class:`ComputeModel` gives the local solve latency;
* ``min_solve_interval`` optionally throttles the resolve rate further
  (modelling OS/network overhead per iteration);
* arrivals during a busy period coalesce into one follow-up solve.

Without such a model a zero-cost resolve-per-arrival policy lets the
event rate grow with the processor adjacency spectral radius — a
simulation artefact, not algorithm behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ..errors import ValidationError
from ..utils.validation import require
from .engine import Engine

SendFn = Callable[[int, object, float], None]
SolveHook = Callable[[int, float, object], None]


@dataclass(frozen=True)
class ComputeModel:
    """Affine local-solve latency: ``base + per_slot·s + per_unknown·n``.

    The port resolve is an s×s mat-vec (s = wave slots); the affine
    form captures both its cost and fixed per-iteration overhead.
    """

    base: float = 0.0
    per_slot: float = 0.0
    per_unknown: float = 0.0

    def __post_init__(self) -> None:
        if min(self.base, self.per_slot, self.per_unknown) < 0:
            raise ValidationError("compute-model coefficients must be >= 0")

    def latency(self, kernel) -> float:
        return (self.base + self.per_slot * kernel.local.n_slots
                + self.per_unknown * kernel.local.n_local)


class Processor:
    """One simulated processor running a distributed kernel.

    Parameters
    ----------
    engine:
        The simulation engine providing the clock.
    proc_id:
        Identity in the topology.
    kernel:
        Any object with ``solve()`` and a ``dirty`` flag (fleet views,
        cluster kernels, block-Jacobi kernels; :meth:`deliver` also
        needs ``receive(slot, value)``); whatever ``solve()`` returns
        is handed to *send*.
    send:
        ``send(proc_id, emitted, t_ready)`` — the executor's router;
        invoked when the solve's results are ready to leave the NIC.
    compute:
        Latency model for one local solve.
    min_solve_interval:
        Minimum spacing between consecutive solve *starts*.
    """

    def __init__(self, engine: Engine, proc_id: int, kernel,
                 send: SendFn, *,
                 compute: Optional[ComputeModel] = None,
                 min_solve_interval: float = 0.0,
                 solve_hook: Optional[SolveHook] = None) -> None:
        require(min_solve_interval >= 0, "min_solve_interval must be >= 0")
        self.engine = engine
        self.proc_id = proc_id
        self.kernel = kernel
        self.send = send
        self.compute = compute or ComputeModel()
        self.min_solve_interval = float(min_solve_interval)
        self.solve_hook = solve_hook
        self.busy_until = -float("inf")
        self.last_start = -float("inf")
        self.n_solves = 0
        self.n_messages_in = 0
        self._solve_pending = False

    # ------------------------------------------------------------------
    # message path
    # ------------------------------------------------------------------
    def deliver(self, slot: int, value: float) -> None:
        """A wave arrives from the network at the current sim time."""
        self.kernel.receive(slot, value)
        self.n_messages_in += 1
        self._consider_solve()

    def notify(self, n_arrivals: int = 1) -> None:
        """Batched-delivery path: waves were already written into the
        kernel (e.g. by ``FleetKernel.receive_batch``); account for them
        and consider a solve exactly as per-message delivery would."""
        self.n_messages_in += int(n_arrivals)
        self._consider_solve()

    def start(self) -> None:
        """Initial solve at t=0 (Table 1 step 1: guessed local BCs)."""
        self._consider_solve(force=True)

    # ------------------------------------------------------------------
    # solve scheduling with coalescing
    # ------------------------------------------------------------------
    def _consider_solve(self, force: bool = False) -> None:
        if self._solve_pending:
            return  # a solve is already scheduled; arrivals coalesce
        if not (self.kernel.dirty or force):
            return
        now = self.engine.now
        earliest = max(now, self.busy_until,
                       self.last_start + self.min_solve_interval)
        self._solve_pending = True
        # always go through the event queue (even for earliest == now):
        # messages arriving at the same instant are then absorbed by one
        # solve instead of each triggering its own
        self.engine.schedule_at(earliest, self._begin_solve)

    def _begin_solve(self) -> None:
        self._solve_pending = False
        now = self.engine.now
        self.last_start = now
        latency = self.compute.latency(self.kernel)
        self.busy_until = now + latency
        messages = self.kernel.solve()
        self.n_solves += 1
        if self.solve_hook is not None:
            self.solve_hook(self.proc_id, self.busy_until, self.kernel)
        # results leave when the computation finishes
        self.send(self.proc_id, messages, self.busy_until)
        if self.kernel.dirty:
            # arrivals raced in between scheduling and starting
            self._consider_solve()
