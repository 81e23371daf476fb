"""Tests for the processor model (compute latency + coalescing)."""

import pytest

from repro.errors import ValidationError
from repro.sim.engine import Engine
from repro.sim.processor import ComputeModel, Processor


class FakeKernel:
    """Minimal kernel: counts solves, echoes a constant message list."""

    def __init__(self, messages=()):
        self.dirty = True
        self.solves = []
        self.received = []
        self.messages = list(messages)

        class _L:
            n_slots = 2
            n_local = 5

        self.local = _L()

    def receive(self, slot, value):
        self.received.append((slot, value))
        self.dirty = True

    def solve(self):
        self.solves.append(True)
        self.dirty = False
        return list(self.messages)


def collect_sends():
    sent = []

    def send(proc_id, messages, t_ready):
        sent.append((proc_id, list(messages), t_ready))

    return sent, send


def test_compute_model_latency():
    cm = ComputeModel(base=1.0, per_slot=0.5, per_unknown=0.1)
    assert cm.latency(FakeKernel()) == pytest.approx(1.0 + 1.0 + 0.5)
    with pytest.raises(ValidationError):
        ComputeModel(base=-1.0)


def test_start_triggers_initial_solve():
    eng = Engine()
    k = FakeKernel(messages=["m"])
    sent, send = collect_sends()
    p = Processor(eng, 3, k, send)
    p.start()
    eng.run()
    assert len(k.solves) == 1
    assert sent == [(3, ["m"], 0.0)]
    assert p.n_solves == 1


def test_results_leave_after_compute_latency():
    eng = Engine()
    k = FakeKernel(messages=["m"])
    sent, send = collect_sends()
    p = Processor(eng, 0, k, send, compute=ComputeModel(base=2.5))
    p.start()
    eng.run()
    assert sent[0][2] == 2.5  # t_ready includes the compute time


def test_arrivals_during_busy_coalesce():
    eng = Engine()
    k = FakeKernel()
    sent, send = collect_sends()
    p = Processor(eng, 0, k, send, compute=ComputeModel(base=10.0))
    p.start()  # busy during [0, 10)
    eng.schedule_at(1.0, p.deliver, 0, 1.0)
    eng.schedule_at(2.0, p.deliver, 1, 2.0)
    eng.schedule_at(3.0, p.deliver, 0, 3.0)
    eng.run()
    # one initial solve + exactly one coalesced follow-up at t=10
    assert len(k.solves) == 2
    assert k.received == [(0, 1.0), (1, 2.0), (0, 3.0)]
    assert p.n_messages_in == 3


def test_min_solve_interval_throttles():
    eng = Engine()
    k = FakeKernel()
    sent, send = collect_sends()
    p = Processor(eng, 0, k, send, min_solve_interval=5.0)
    p.start()
    for t in (1.0, 2.0, 3.0, 4.0):
        eng.schedule_at(t, p.deliver, 0, t)
    eng.run()
    # initial solve at 0, arrivals 1..4 coalesce into one solve at t=5
    assert len(k.solves) == 2
    assert eng.now == 5.0


def test_idle_processor_solves_immediately_on_arrival():
    eng = Engine()
    k = FakeKernel()
    _sent, send = collect_sends()
    p = Processor(eng, 0, k, send)
    p.start()
    eng.run()
    eng.schedule_at(7.0, p.deliver, 1, 9.9)
    eng.run()
    assert len(k.solves) == 2
    assert k.received == [(1, 9.9)]


def test_no_solve_without_dirty_state():
    eng = Engine()
    k = FakeKernel()
    _sent, send = collect_sends()
    p = Processor(eng, 0, k, send)
    p.start()
    eng.run()
    # kernel clean: a spurious _consider_solve must do nothing
    p._consider_solve()
    eng.run()
    assert len(k.solves) == 1


def test_negative_min_interval_rejected():
    eng = Engine()
    with pytest.raises(ValidationError):
        Processor(eng, 0, FakeKernel(), lambda *a: None,
                  min_solve_interval=-1.0)


def test_solve_hook_invoked():
    eng = Engine()
    k = FakeKernel()
    hooked = []

    def hook(pid, t, kernel):
        hooked.append((pid, t))

    p = Processor(eng, 4, k, lambda *a: None,
                  compute=ComputeModel(base=1.5), solve_hook=hook)
    p.start()
    eng.run()
    assert hooked == [(4, 1.5)]


def test_counters():
    eng = Engine()
    k = FakeKernel()
    p = Processor(eng, 0, k, lambda *a: None)
    p.start()
    eng.run()
    assert (p.n_solves, p.n_messages_in) == (1, 0)
