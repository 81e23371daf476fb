"""Event queue for the discrete-event simulator.

A thin binary-heap priority queue ordered by ``(time, seq)`` where the
monotonically increasing sequence number makes same-instant events FIFO
and keeps comparisons away from the (arbitrary) callback payloads.

Heap entries are :class:`Event` *named tuples*: heap pushes/pops then
use the C tuple comparison on ``(time, seq, ...)`` — ``seq`` is unique,
so the payload fields are never compared — and allocation is a plain
tuple, not a dataclass with generated ordering methods (which dominated
push/pop cost in profiles).

Waves travel in bundles: one entry per (solve, arrival time) whose
``fn`` is the :data:`MESSAGE_BUNDLE` marker and whose ``args`` are
``(dest_slots, values)`` arrays in emission order.  An emission
reserves one ``seq`` per wave (:meth:`EventQueue.push_bundles`), so
each bundle sits where its waves would have sat one entry apiece.
"""

from __future__ import annotations

import heapq
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from ..errors import SimulationError


def MESSAGE_BUNDLE(*_args) -> None:
    """Marker of wave-bundle entries; they go to the engine's sink."""
    raise SimulationError("wave bundle fired without a delivery sink")


class Event(NamedTuple):
    """One scheduled callback (heap entry; compares on ``(time, seq)``)."""

    time: float
    seq: int
    fn: Callable[..., None]
    args: tuple = ()

    def fire(self) -> None:
        self.fn(*self.args)


class EventQueue:
    """Min-heap of events keyed by (time, insertion order)."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: float, fn: Callable[..., None],
             args: tuple = ()) -> Event:
        """Schedule *fn(*args)* at *time*; returns the event entry."""
        if not (time == time):  # NaN guard
            raise SimulationError("event time is NaN")
        ev = Event(float(time), self._seq, fn, args)
        self._seq += 1
        heapq.heappush(self._heap, ev)
        return ev

    def push_bundles(self, times: Sequence[float],
                     dest_slots: Sequence[np.ndarray],
                     values: Sequence[np.ndarray], n_waves: int) -> None:
        """Schedule one emission's bundles (distinct *times*).

        Bundle *k* takes ``seq = base + k`` and ``seq`` then advances by
        the emission's *n_waves*, so every delivery keeps the ``(time,
        seq)`` place one entry per wave would have had.
        """
        base = self._seq
        for k, t in enumerate(times):
            if not (t == t):  # NaN guard
                raise SimulationError("event time is NaN")
            heapq.heappush(self._heap, Event(
                float(t), base + k, MESSAGE_BUNDLE,
                (dest_slots[k], values[k])))
        self._seq = base + n_waves

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        if not self._heap:
            raise SimulationError("pop from an empty event queue")
        return heapq.heappop(self._heap)

    def pop_message_run(self, limit: float = float("inf")
                        ) -> tuple[float, np.ndarray, np.ndarray]:
        """Pop the bundles sharing the head entry's time, in ``(time,
        seq)`` order up to the first non-bundle entry, and return
        ``(time, dest_slots, values)`` concatenated.  *limit* caps the
        number of *waves*: the bundle that crosses it is split and its
        remainder goes back at the same ``(time, seq)``.
        """
        heap = self._heap
        if not heap or heap[0].fn is not MESSAGE_BUNDLE:
            raise SimulationError("pop_message_run needs a bundle first")
        runs = [heapq.heappop(heap)]
        t = runs[0].time
        n = len(runs[0].args[0])
        while n < limit and heap and heap[0].time == t \
                and heap[0].fn is MESSAGE_BUNDLE:
            runs.append(heapq.heappop(heap))
            n += len(runs[-1].args[0])
        if n > limit:
            last = runs.pop()
            (dest, vals), cut = last.args, int(len(last.args[0]) - (n - limit))
            heapq.heappush(heap, last._replace(args=(dest[cut:],
                                                     vals[cut:])))
            runs.append(last._replace(args=(dest[:cut], vals[:cut])))
        return (t, np.concatenate([ev.args[0] for ev in runs]),
                np.concatenate([ev.args[1] for ev in runs]))

    def peek(self) -> Optional[Event]:
        """The earliest entry without removing it, or None when empty."""
        return self._heap[0] if self._heap else None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest event, or None when empty."""
        return self._heap[0].time if self._heap else None

    def clear(self) -> None:
        self._heap.clear()
