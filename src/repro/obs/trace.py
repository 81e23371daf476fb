"""Per-solve trace timelines: what one asynchronous solve did, when.

A :class:`SolveTrace` is an append-only timeline of typed records —
instant *events* and duration-carrying *spans* — collected by one
solve and attached to its :class:`~repro.plan.session.SolveResult`
when tracing is on.  The record vocabulary used by the instrumented
layers:

===================  ==================================================
kind                 meaning
===================  ==================================================
``plan_lookup``      event: whether the plan came from a cache or
                     store (``reused``)
``rhs_swap``         span (event on multiproc): right-hand-side swap
                     against kept factors
``solve``            span: the whole execute phase of one solve
``probe``            event: one *look* of the multiproc coordinator —
                     STOP, every ack, one measurement of the quiesced
                     state: the ``epoch`` it ended, solve time ``t``,
                     the ``residual`` it measured (``None`` when no
                     residual rule sampled), the ``next_delay`` the
                     pacer chose and the predicted tolerance
                     ``crossing``.  The last ``probe`` of a solve is
                     the measurement its result reports
``stop``             event: the stopping decision that ended the run
``recovery``         event: a shard worker was lost and its recovery
                     began (``shard``)
===================  ==================================================

Timestamps are seconds relative to the trace's start (monotonic
clock); ``wall0`` records the absolute start for correlation across
processes.  Traces are deliberately process-local — cross-process
aggregation is the metric registry's job — and export as JSON lines
(:meth:`to_jsonl`) so solves can be diffed with standard tools.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Optional

from ..errors import ConfigurationError


class SolveTrace:
    """Append-only timeline of one solve's typed events and spans."""

    __slots__ = ("solve_id", "wall0", "_t0", "_lock", "records")

    def __init__(self, solve_id: Optional[str] = None) -> None:
        self.solve_id = solve_id
        self.wall0 = time.time()
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()
        self.records: list[dict] = []

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    def event(self, kind: str, **fields) -> None:
        """Record an instant event at the current time."""
        rec = {"t": self._now(), "kind": kind}
        rec.update(fields)
        with self._lock:
            self.records.append(rec)

    @contextmanager
    def span(self, kind: str, **fields):
        """Record a span covering the ``with`` block (``t`` + ``dur``).

        Yields a dict the block may add fields to (e.g. an outcome
        decided mid-span); the record lands when the block exits —
        exceptions included, so a failed phase still shows up with
        its duration.
        """
        rec = {"t": self._now(), "kind": kind}
        rec.update(fields)
        try:
            yield rec
        finally:
            rec["dur"] = self._now() - rec["t"]
            with self._lock:
                self.records.append(rec)

    def __len__(self) -> int:
        return len(self.records)

    # -- export ---------------------------------------------------------
    def to_jsonl(self, path_or_file) -> None:
        """Write one JSON object per record, prefixed by a header line."""
        header = {
            "trace": "repro-solve-trace/1",
            "solve_id": self.solve_id,
            "wall0": self.wall0,
        }
        if hasattr(path_or_file, "write"):
            self._write_jsonl(path_or_file, header)
        else:
            with open(path_or_file, "w") as fh:
                self._write_jsonl(fh, header)

    def _write_jsonl(self, fh, header: dict) -> None:
        fh.write(json.dumps(header) + "\n")
        with self._lock:
            records = list(self.records)
        for rec in records:
            fh.write(json.dumps(rec) + "\n")

    def summarize(self) -> dict:
        """Per-kind rollup: counts, total span time, last event.

        Returns ``{"solve_id", "duration", "kinds": {kind: {"count",
        "total_s"}}}`` — enough to answer "where did this solve spend
        its time" without replaying the timeline.
        """
        with self._lock:
            records = list(self.records)
        kinds: dict = {}
        end = 0.0
        for rec in records:
            agg = kinds.setdefault(
                rec["kind"], {"count": 0, "total_s": 0.0}
            )
            agg["count"] += 1
            agg["total_s"] += rec.get("dur", 0.0)
            end = max(end, rec["t"] + rec.get("dur", 0.0))
        return {
            "solve_id": self.solve_id,
            "duration": end,
            "kinds": kinds,
        }


def resolve_trace(trace) -> "SolveTrace | None":
    """Normalize a ``trace=`` kwarg: None/False off, True fresh, or
    an existing :class:`SolveTrace` to append to."""
    if trace is None or trace is False:
        return None
    if trace is True:
        return SolveTrace()
    if isinstance(trace, SolveTrace):
        return trace
    raise ConfigurationError(
        f"trace must be None, a bool or a SolveTrace, got {trace!r}")


__all__ = ["SolveTrace", "resolve_trace"]
