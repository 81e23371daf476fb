"""The discrete-event simulation engine.

This is the substitute for the paper's MATLAB/SIMULINK "DTM toolbox":
a deterministic clock that fires scheduled callbacks in time order.
DTM's state only changes when messages arrive, so event-driven
simulation reproduces the continuous-time trajectory exactly (the
inter-event state is piecewise constant).

Waves travel in bundles (:meth:`Engine.schedule_bundles`, one heap
entry per arrival time of an emission); the run loop hands the
simultaneous bundles at the head of the heap to the executor's *message
sink* in one call (one vectorised ``receive_batch``, not one Python
callback per wave).  An emission reserves one ``seq`` per wave and a
run stops at the first non-bundle entry, so the trajectory is exactly
that of one heap entry per wave: same waves, same event order, same
counters (``n_events_processed`` counts waves).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from ..errors import SimulationError
from .events import MESSAGE_BUNDLE, EventQueue


class Engine:
    """Deterministic event-driven simulation clock; *message_sink*
    ``(dest_slots, values)`` receives each run of bundles, in order."""

    def __init__(self, message_sink: Optional[Callable] = None) -> None:
        self.queue = EventQueue()
        self.now: float = 0.0
        self.n_events_processed: int = 0
        self._stopped = False
        self._message_sink = message_sink

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule_at(self, time: float, fn: Callable[..., None],
                    *args) -> None:
        """Schedule *fn* at absolute simulation time *time*."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time} before current time {self.now}")
        self.queue.push(time, fn, args)

    def schedule_after(self, delay: float, fn: Callable[..., None],
                       *args) -> None:
        """Schedule *fn* after *delay* time units."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self.queue.push(self.now + delay, fn, args)

    def schedule_bundles(self, times: Sequence[float],
                         dest_slots: Sequence[np.ndarray],
                         values: Sequence[np.ndarray],
                         n_waves: int) -> None:
        """Schedule one emission: bundle *k* arrives at ``times[k]``
        (see :meth:`EventQueue.push_bundles`)."""
        if self._message_sink is None:
            raise SimulationError("schedule_bundles requires a message sink")
        if min(times) < self.now:
            raise SimulationError(
                f"cannot schedule at {min(times)} before current time "
                f"{self.now}")
        self.queue.push_bundles(times, dest_slots, values, n_waves)

    def stop(self) -> None:
        """Stop the run loop after the current event finishes."""
        self._stopped = True

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Process events in order until the horizon/quiescence/stop.

        Parameters
        ----------
        until:
            Absolute horizon: events strictly after it stay queued and
            the clock is advanced to the horizon.  ``None`` runs to
            quiescence (empty queue).
        max_events:
            Safety budget; exceeding it raises :class:`SimulationError`
            (an unbounded event cascade is a bug, not a result).

        Returns the simulation time when the loop exited.
        """
        self._stopped = False
        budget = float("inf") if max_events is None else int(max_events)
        processed = 0
        queue = self.queue
        while not self._stopped:
            head = queue.peek()
            if head is None:
                break
            if until is not None and head.time > until:
                self.now = float(until)
                break
            if processed >= budget:
                raise SimulationError(
                    f"event budget of {max_events} exhausted at t={self.now}; "
                    "the configuration generates events faster than expected "
                    "(check min_solve_interval / compute model)")
            if head.fn is MESSAGE_BUNDLE:
                # cap the batch at the remaining budget so exhaustion
                # fires at the same wave count as one entry per wave
                t, slots, values = queue.pop_message_run(budget - processed)
                self.now = t
                self._message_sink(slots, values)
                processed += len(slots)
            else:
                ev = queue.pop()
                self.now = ev.time
                ev.fn(*ev.args)
                processed += 1
        if until is not None and self.queue.peek_time() is None \
                and not self._stopped and self.now < until:
            self.now = float(until)
        self.n_events_processed += processed
        return self.now

    @property
    def idle(self) -> bool:
        """True when no events remain."""
        return len(self.queue) == 0
