"""Tests for the event queue and simulation engine."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.events import EventQueue


# ----------------------------------------------------------------------
# event queue
# ----------------------------------------------------------------------
def test_queue_orders_by_time():
    q = EventQueue()
    fired = []
    q.push(2.0, fired.append, (2,))
    q.push(1.0, fired.append, (1,))
    q.push(3.0, fired.append, (3,))
    while len(q):
        q.pop().fire()
    assert fired == [1, 2, 3]


def test_queue_fifo_at_same_instant():
    q = EventQueue()
    fired = []
    for k in range(5):
        q.push(1.0, fired.append, (k,))
    while len(q):
        q.pop().fire()
    assert fired == [0, 1, 2, 3, 4]


def test_queue_peek_and_empty_pop():
    q = EventQueue()
    assert q.peek_time() is None
    with pytest.raises(SimulationError):
        q.pop()
    q.push(5.0, lambda: None)
    assert q.peek_time() == 5.0


def test_queue_rejects_nan():
    q = EventQueue()
    with pytest.raises(SimulationError):
        q.push(float("nan"), lambda: None)


def test_queue_clear():
    q = EventQueue()
    q.push(1.0, lambda: None)
    q.clear()
    assert len(q) == 0


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------
def test_engine_runs_to_quiescence():
    eng = Engine()
    log = []
    eng.schedule_at(1.0, log.append, "a")
    eng.schedule_at(0.5, log.append, "b")
    t = eng.run()
    assert log == ["b", "a"]
    assert t == 1.0
    assert eng.idle


def test_engine_horizon_keeps_future_events():
    eng = Engine()
    log = []
    eng.schedule_at(1.0, log.append, 1)
    eng.schedule_at(5.0, log.append, 5)
    t = eng.run(until=2.0)
    assert log == [1]
    assert t == 2.0
    assert not eng.idle
    eng.run()  # continue to quiescence
    assert log == [1, 5]


def test_engine_clock_advances_to_horizon_when_idle():
    eng = Engine()
    t = eng.run(until=10.0)
    assert t == 10.0


def test_engine_schedule_during_run():
    eng = Engine()
    log = []

    def chain(k):
        log.append(k)
        if k < 3:
            eng.schedule_after(1.0, chain, k + 1)

    eng.schedule_at(0.0, chain, 0)
    eng.run()
    assert log == [0, 1, 2, 3]
    assert eng.now == 3.0


def test_engine_stop_mid_run():
    eng = Engine()
    log = []
    eng.schedule_at(1.0, eng.stop)
    eng.schedule_at(2.0, log.append, "late")
    t = eng.run(until=10.0)
    assert log == []
    assert t == 1.0


def test_engine_rejects_past_events():
    eng = Engine()
    eng.schedule_at(1.0, lambda: None)
    eng.run()
    with pytest.raises(SimulationError):
        eng.schedule_at(0.5, lambda: None)
    with pytest.raises(SimulationError):
        eng.schedule_after(-1.0, lambda: None)


def test_engine_event_budget():
    eng = Engine()

    def forever():
        eng.schedule_after(1.0, forever)

    eng.schedule_at(0.0, forever)
    with pytest.raises(SimulationError, match="budget"):
        eng.run(max_events=100)


def test_engine_event_counter():
    eng = Engine()
    for k in range(7):
        eng.schedule_at(float(k), lambda: None)
    eng.run()
    assert eng.n_events_processed == 7


# ----------------------------------------------------------------------
# wave bundles
# ----------------------------------------------------------------------
def _bundle_engine():
    seen = []
    eng = Engine(lambda slots, values: seen.append(
        (eng.now, list(slots), list(values))))
    return eng, seen


def _push(eng, *bundles):
    """One emission: ``(time, slots)`` bundles, value = slot."""
    times = [t for t, _ in bundles]
    slots = [np.asarray(s, dtype=np.int64) for _, s in bundles]
    eng.schedule_bundles(times, slots, [s.astype(float) for s in slots],
                         sum(s.size for s in slots))


def test_message_batch_respects_event_budget():
    """Budget exhaustion fires at the same wave count as one entry per
    wave: a simultaneous batch is cut at the remaining budget."""
    eng, seen = _bundle_engine()
    for i in range(3):
        _push(eng, (1.0, [i]))
    with pytest.raises(SimulationError):
        eng.run(max_events=2)
    assert [s for _, s, _ in seen] == [[0, 1]]
    # the third wave is still queued, deliverable once budget allows
    eng.run()
    assert [s for _, s, _ in seen] == [[0, 1], [2]]


def test_budget_splits_a_bundle_and_delivers_the_rest_first():
    eng, seen = _bundle_engine()
    _push(eng, (1.0, [0, 1]))
    _push(eng, (1.0, [2, 3, 4, 5]))
    later = []
    eng.schedule_at(1.0, later.append, "same instant, pushed after")
    with pytest.raises(SimulationError, match="budget"):
        eng.run(max_events=3)
    assert seen == [(1.0, [0, 1, 2], [0.0, 1.0, 2.0])]
    eng.run()
    # the remainder kept its (time, seq): it precedes the later push
    assert seen[1] == (1.0, [3, 4, 5], [3.0, 4.0, 5.0])
    assert later == ["same instant, pushed after"]


def test_same_instant_bundles_are_fifo_across_pushes():
    eng, seen = _bundle_engine()
    _push(eng, (2.0, [5]), (1.0, [1, 2]))
    _push(eng, (1.0, [3]), (3.0, [9]))
    _push(eng, (2.0, [6, 7]))
    eng.run()
    assert [(t, s) for t, s, _ in seen] == [
        (1.0, [1, 2, 3]), (2.0, [5, 6, 7]), (3.0, [9])]


def test_non_message_entry_between_bundles_ends_the_batch():
    eng, seen = _bundle_engine()
    order = []
    _push(eng, (1.0, [0, 1]))
    eng.schedule_at(1.0, lambda: order.append(len(seen)))
    _push(eng, (1.0, [2]))
    eng.run()
    assert [s for _, s, _ in seen] == [[0, 1], [2]]
    assert order == [1]  # fired between the two deliveries


def test_bundle_seq_reserves_one_number_per_wave():
    eng, _ = _bundle_engine()
    _push(eng, (1.0, [0, 1, 2]), (2.0, [3]))
    assert eng.queue._seq == 4
    eng.schedule_at(1.0, lambda: None)
    assert eng.queue.peek().seq == 0
    assert sorted(ev.seq for ev in eng.queue._heap) == [0, 1, 4]


def test_bundles_reject_nan_and_past_times():
    eng, _ = _bundle_engine()
    with pytest.raises(SimulationError, match="NaN"):
        _push(eng, (float("nan"), [0]))
    eng.schedule_at(2.0, lambda: None)
    eng.run()
    with pytest.raises(SimulationError, match="before current time"):
        _push(eng, (3.0, [0]), (1.0, [1]))


def test_event_count_is_waves_not_bundles():
    eng, seen = _bundle_engine()
    _push(eng, (1.0, [0, 1, 2]), (2.0, [3, 4]))
    _push(eng, (1.0, [5]))
    eng.run()
    assert len(seen) == 2
    assert eng.n_events_processed == 6


def test_schedule_bundles_requires_sink():
    eng = Engine()
    with pytest.raises(SimulationError, match="sink"):
        _push(eng, (1.0, [0]))
