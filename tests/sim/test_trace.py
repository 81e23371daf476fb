"""Tests for observers, message logs and solve logs."""

import numpy as np
import pytest

from repro.core.convergence import HorizonRule, ReferenceRule, SolveContext
from repro.errors import ValidationError
from repro.sim.engine import Engine
from repro.sim.trace import (
    ErrorObserver,
    MessageLog,
    MessageRecord,
    PortProbe,
    SolveLog,
)
from repro.workloads.paper import paper_split


# ----------------------------------------------------------------------
# MessageLog structural checks
# ----------------------------------------------------------------------
def rec(t, src, dst, dtlp=0, value=0.0, latency=1.0):
    return MessageRecord(t_send=t, t_arrive=t + latency, src_proc=src,
                         dst_proc=dst, dtlp_index=dtlp, value=value)


def test_message_log_pairwise_traffic():
    log = MessageLog()
    log.record(rec(0.0, 0, 1))
    log.record(rec(1.0, 0, 1))
    log.record(rec(2.0, 1, 0))
    assert log.pairwise_traffic() == {(0, 1): 2, (1, 0): 1}
    assert len(log) == 3


def test_message_log_disabled():
    log = MessageLog(enabled=False)
    log.record(rec(0.0, 0, 1))
    assert len(log) == 0


def test_is_n2n_only():
    log = MessageLog()
    log.record(rec(0.0, 0, 1))
    log.record(rec(0.0, 1, 2))
    assert log.is_n2n_only({(0, 1), (1, 2)})
    assert not log.is_n2n_only({(0, 1)})


def test_no_broadcast_detection():
    log = MessageLog()
    # proc 0 messages everyone else out of 4 procs -> broadcast-like
    for dst in (1, 2, 3):
        log.record(rec(0.0, 0, dst))
    assert not log.no_broadcast(4)
    # but with 5 procs the same traffic is not a full broadcast
    assert log.no_broadcast(5)
    assert MessageLog().no_broadcast(2)


def test_delays_observed():
    log = MessageLog()
    log.record(rec(0.0, 0, 1, latency=3.5))
    log.record(rec(1.0, 0, 1, latency=3.5))
    obs = log.delays_observed()
    assert obs[(0, 1)] == [3.5, 3.5]


# ----------------------------------------------------------------------
# SolveLog
# ----------------------------------------------------------------------
def test_solve_log_lockstep_fraction():
    log = SolveLog()
    # two processors always solving at identical instants -> fraction 1
    for t in (0.0, 1.0, 2.0):
        log.on_solve(0, t, None)
        log.on_solve(1, t, None)
    assert log.lockstep_fraction() == pytest.approx(1.0)
    # disjoint instants -> only t=0 shared
    log2 = SolveLog()
    log2.on_solve(0, 0.0, None)
    log2.on_solve(1, 0.0, None)
    for t in (1.1, 2.3):
        log2.on_solve(0, t, None)
    for t in (1.7, 2.9):
        log2.on_solve(1, t, None)
    assert log2.lockstep_fraction() == pytest.approx(1.0 / 3.0)


def test_solve_log_empty():
    assert SolveLog().lockstep_fraction() == 0.0


# ----------------------------------------------------------------------
# PortProbe
# ----------------------------------------------------------------------
def test_port_probe_requires_port_vertex():
    split = paper_split()
    with pytest.raises(ValidationError):
        PortProbe(split, [(0, 0)])  # vertex 0 is interior of part 0


def test_port_probe_records_on_solve():
    split = paper_split()
    probe = PortProbe(split, [(0, 1), (0, 2)])

    class K:
        u_ports = np.array([1.5, 2.5])

    probe.on_solve(0, 1.0, K())
    probe.on_solve(1, 2.0, K())  # untracked part: ignored
    assert probe.trace(0, 1).final == 1.5
    assert probe.trace(0, 2).final == 2.5
    assert len(probe.trace(0, 1)) == 1


# ----------------------------------------------------------------------
# ErrorObserver
# ----------------------------------------------------------------------
def _monitor(rule, reference):
    return rule.begin(SolveContext(reference=reference))


def test_error_observer_requires_positive_interval():
    eng = Engine()
    monitor = _monitor(ReferenceRule(), np.zeros(4))
    with pytest.raises(ValidationError):
        ErrorObserver(eng, lambda: np.zeros(4), monitor, interval=0.0)


def test_error_observer_samples_and_stops_on_tol():
    eng = Engine()
    monitor = _monitor(ReferenceRule(tol=1e-3), np.zeros(4))
    obs = ErrorObserver(eng, lambda: np.zeros(4), monitor, interval=1.0,
                        detect_quiescence=False)
    obs.install()
    # keep the engine busy with unrelated events
    for t in range(12):
        eng.schedule_at(float(t), lambda: None)
    eng.run(until=100.0)
    # exact state from the start: converges at the first sample
    assert monitor.fired is not None and monitor.fired.converged
    assert len(monitor.series) == 1
    assert eng.now == 0.0


def test_error_observer_quiescence_stop():
    eng = Engine()
    monitor = _monitor(ReferenceRule(), np.ones(4))
    obs = ErrorObserver(eng, lambda: np.zeros(4), monitor, interval=1.0)
    obs.install()
    eng.run(until=50.0)
    assert obs.stopped_quiescent
    assert monitor.fired is None
    assert eng.now < 50.0


def test_error_observer_honors_horizon_rule():
    # a HorizonRule is the time budget: the observer stops the engine
    # at the first sample that reaches it, without certifying anything
    eng = Engine()
    monitor = _monitor(ReferenceRule(tol=1e-12) | HorizonRule(t_max=5.0),
                       np.ones(4))
    obs = ErrorObserver(eng, lambda: np.zeros(4), monitor, interval=1.0,
                        detect_quiescence=False)
    obs.install()
    for t in range(60):
        eng.schedule_at(float(t), lambda: None)
    eng.run(until=50.0)
    assert monitor.fired.rule == "horizon"
    assert not monitor.fired.converged
    assert eng.now == 5.0
