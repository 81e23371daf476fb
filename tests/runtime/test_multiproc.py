"""The multiprocess sharded runtime (ISSUE 4).

Covers the numerical contract end to end:

* shard extraction — contiguous balanced cuts, routing/mailbox
  consistency, payload serialization;
* the :class:`ShardKernel` repack — *lockstep* shard sweeps are
  bitwise-identical to the fleet kernel's ``solve_all``/``emit_all``;
* ``MultiprocDtmRunner(shards=1)`` — bitwise-identical to the fleet
  simulator (circuit and Poisson workloads);
* ``shards>1`` — true-parallel workers converge to the same tolerance
  with reference-free stopping, never materializing the plan's
  reference factor;
* the per-edge mailbox property — latest-wins delivery under
  arbitrary (fair, boundedly stale) interleavings preserves the
  stopping-rule invariants of ``tests/test_stopping_integration.py``;
* the stop protocol — ``_run_worker`` against a scripted in-memory
  port: a STOP that overtook the epoch bump ends that epoch, a STOP
  left over from the previous epoch does not, and the interiors are
  computed and published exactly once per epoch, between STOP and ack;
* look pacing — the coordinator against a scripted port and a fake
  clock: a look is STOP → ack → one measurement of the quiesced state
  → done | resume under the next epoch; a geometric residual is
  stopped at its crossing in a look or two, a stalled one falls back
  to the ceiling cadence, a quiescence solve keeps the fixed cadence,
  no nap outlives the ceiling or the wall budget, and a solve reports
  ``converged`` only if its last look measured ``residual <= tol``;
* the serving layer — plan store keying, warm runners, the serve loop.
"""

import faulthandler
import math
import threading
import time
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import QuiescenceRule, ReferenceRule, ResidualRule, solve_dtm
from repro.core.convergence import StateProbe, begin_monitor, relative_residual
from repro.core.shard_kernel import ShardKernel
from repro.errors import ConfigurationError, MultiprocError, ValidationError
from repro.graph.evs import DominancePreservingSplit, split_graph
from repro.graph.partitioners import grid_block_partition
from repro.linalg.sparse import CsrMatrix
from repro.plan import build_plan
from repro.plan.session import SolverSession
from repro.plan.shard import (
    MailboxSpec,
    ShardSpec,
    extract_shards,
    shard_bounds,
)
from repro.net.transport import CoordinatorPort, Transport, WorkerPort
from repro.runtime import multiproc
from repro.runtime.multiproc import (
    _REACH,
    PROBE_CEILING,
    EdgeMailbox,
    MultiprocDtmRunner,
    _ProbePacer,
)
from repro.runtime.shard_worker import _run_worker
from repro.runtime.server import DtmServer, PlanStore, ServeRequest, plan_hash
from repro.sim.network import custom_topology, mesh_topology
from repro.workloads.circuits import resistor_grid
from repro.workloads.paper import (
    example_5_1_delays,
    example_5_1_impedances,
    paper_split,
    paper_system_3_2,
)
from repro.workloads.poisson import grid2d_poisson, grid2d_random

# a CI hang in this file should dump stacks, not eat the runner cap
faulthandler.enable()

TOL = 1e-8


@pytest.fixture(scope="module")
def poisson_plan():
    return build_plan(grid2d_poisson(20), n_subdomains=8, seed=1)


@pytest.fixture(scope="module")
def circuit_plan():
    return build_plan(resistor_grid(9, 9, seed=3), n_subdomains=6, seed=0)


@pytest.fixture(scope="module")
def runner(poisson_plan):
    """One warm 3-shard worker pool shared by the solve tests."""
    with MultiprocDtmRunner(poisson_plan, shards=3) as r:
        yield r


def direct_solution(plan, b=None):
    """Dense oracle that bypasses the plan's reference machinery."""
    b = plan.base_b if b is None else np.asarray(b, dtype=np.float64)
    return np.linalg.solve(plan.a_mat.to_dense(), b)


# ----------------------------------------------------------------------
# shard extraction
# ----------------------------------------------------------------------
class TestShardBounds:
    def test_covers_everything_contiguously(self):
        bounds = shard_bounds([5, 1, 1, 1, 5, 1, 1, 5], 3)
        assert bounds[0][0] == 0 and bounds[-1][1] == 8
        for (lo_a, hi_a), (lo_b, _) in zip(bounds, bounds[1:]):
            assert hi_a == lo_b
            assert hi_a > lo_a

    def test_balances_weight(self):
        # heavy head: the first shard should not swallow everything
        bounds = shard_bounds([100, 1, 1, 1], 2)
        assert bounds == [(0, 1), (1, 4)]

    def test_degenerate_counts(self):
        assert shard_bounds([1, 1], 1) == [(0, 2)]
        assert shard_bounds([1, 1], 2) == [(0, 1), (1, 2)]
        with pytest.raises(ConfigurationError):
            shard_bounds([1, 1], 3)
        with pytest.raises(ConfigurationError):
            shard_bounds([1, 1], 0)


class TestShardExtraction:
    @pytest.mark.parametrize("n_shards", [2, 3, 8])
    def test_partition_of_parts_and_slots(self, poisson_plan, n_shards):
        specs = extract_shards(poisson_plan, n_shards)
        fleet = poisson_plan.fleet_template
        parts = np.concatenate([s.parts for s in specs])
        assert np.array_equal(parts, np.arange(fleet.n_parts))
        assert specs[0].slot_lo == 0
        assert specs[-1].slot_hi == fleet.n_slots_total
        for a, b in zip(specs, specs[1:]):
            assert a.slot_hi == b.slot_lo
            assert a.state_hi == b.state_lo

    def test_mailboxes_cover_owned_slots_once(self, poisson_plan):
        specs = extract_shards(poisson_plan, 3)
        fleet = poisson_plan.fleet_template
        for spec in specs:
            n_owned = spec.slot_hi - spec.slot_lo
            pos = np.concatenate(
                [spec.loopback.emit_pos]
                + [box.emit_pos for box in spec.outboxes])
            assert np.array_equal(np.sort(pos), np.arange(n_owned))
            dest = np.concatenate(
                [spec.loopback.dest_slots]
                + [box.dest_slots for box in spec.outboxes])
            owned = np.arange(spec.slot_lo, spec.slot_hi)
            assert np.array_equal(
                np.sort(dest),
                np.sort(fleet.route_dest_slot_global[owned]))

    def test_every_global_slot_has_one_writer(self, poisson_plan):
        specs = extract_shards(poisson_plan, 3)
        dest = np.concatenate(
            [np.concatenate([spec.loopback.dest_slots]
                            + [b.dest_slots for b in spec.outboxes])
             for spec in specs])
        # the routing is a permutation: each slot written exactly once
        assert np.array_equal(
            np.sort(dest),
            np.arange(poisson_plan.fleet_template.n_slots_total))

    def test_vtm_plan_rejected(self):
        plan = build_plan(grid2d_poisson(6), mode="vtm", n_subdomains=4)
        with pytest.raises(ConfigurationError):
            extract_shards(plan, 2)


class TestShardKernel:
    def test_requires_loaded_x0(self, poisson_plan):
        kern = poisson_plan.fleet_template.kernel.slice(0, 2)
        with pytest.raises(ValidationError):
            kern.sweep(np.zeros(kern.n_slots))

    def test_rejects_non_contiguous_parts(self, poisson_plan):
        kern = poisson_plan.fleet_template.kernel.slice(0, 2)
        with pytest.raises(ValidationError):
            ShardKernel(np.array([0, 2]), kern.slot_port, kern.groups)

    def test_rejects_bad_x0_shape(self, poisson_plan):
        kern = poisson_plan.fleet_template.kernel.slice(0, 2)
        with pytest.raises(ValidationError):
            kern.load_x0(np.zeros(kern.n_states + 1))

    def test_shard_stacks_are_views_of_the_fleet_stacks(self,
                                                        poisson_plan):
        """The stacks exist once: a shard's X3 is a slice of the
        fleet's."""
        kernel = poisson_plan.fleet_template.kernel
        fleet_stacks = [g.X3 for g in kernel.groups]
        for spec in extract_shards(poisson_plan, 3):
            for g in spec.kernel.groups:
                assert any(np.shares_memory(g.X3, x3)
                           for x3 in fleet_stacks)

    @pytest.mark.parametrize("n_shards", [1, 2, 3])
    def test_lockstep_sweeps_bitwise_match_fleet(self, poisson_plan,
                                                 n_shards):
        """Synchronous shard sweeps == fleet solve_all/emit_all, bitwise.

        This is the regrouping half of the numerical contract: cutting
        the fleet into shards must not change a single bit of any
        subdomain's resolve or emission.
        """
        plan = poisson_plan
        fleet = plan.fork_fleet()
        specs = extract_shards(plan, n_shards)
        x0_flat = np.concatenate([loc.x0 for loc in plan.base_locals])
        for spec in specs:
            spec.kernel.load_x0(x0_flat[spec.state_lo:spec.state_hi])
        waves = np.zeros(fleet.n_slots_total)
        for _ in range(4):
            fleet.solve_all()
            dest, vals = fleet.emit_all()
            outs = [(spec, spec.kernel.sweep(
                waves[spec.slot_lo:spec.slot_hi].copy()))
                for spec in specs]
            next_waves = waves.copy()
            for spec, out in outs:
                EdgeMailbox(spec.loopback, next_waves).post(out)
                for box in spec.outboxes:
                    EdgeMailbox(box, next_waves).post(out)
            fleet.receive_batch(dest, vals)
            waves = next_waves
            assert np.array_equal(waves, fleet.waves)
        states = np.concatenate(
            [spec.kernel.full_states(
                waves[spec.slot_lo:spec.slot_hi].copy())
             for spec in specs])
        ref = np.concatenate([v.full_state() for v in fleet.views()])
        assert np.array_equal(states, ref)


# ----------------------------------------------------------------------
# the mailbox property (satellite): latest-wins under interleavings
# ----------------------------------------------------------------------
class TestMailboxProperty:
    @given(st.data())
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_latest_wins_per_slot(self, data):
        """Posts overwrite; the final value is the last post per slot,
        however the posts were grouped or interleaved."""
        n_slots = data.draw(st.integers(4, 24))
        waves = np.zeros(n_slots)
        last = {}
        n_posts = data.draw(st.integers(1, 30))
        for _ in range(n_posts):
            k = data.draw(st.integers(1, n_slots))
            slots = np.array(data.draw(st.lists(
                st.integers(0, n_slots - 1), min_size=k, max_size=k)))
            values = np.array(data.draw(st.lists(
                st.floats(-10, 10), min_size=k, max_size=k)))
            box = EdgeMailbox(
                MailboxSpec(0, 1, np.arange(k), slots), waves)
            box.post(values)
            # the receiver-side view agrees with the raw array
            assert np.array_equal(box.peek(), waves[slots])
            for s, v in zip(slots, values):
                last[int(s)] = v  # later duplicates win, as in the post
        for s, v in last.items():
            assert waves[s] == v

    @given(seed=st.integers(0, 10_000), max_lag=st.integers(0, 3))
    @settings(max_examples=12, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_interleavings_preserve_stopping_invariants(self, seed,
                                                        max_lag):
        """Chaotic shard scheduling with delayed, overwritten deliveries
        still converges under a reference-free rule — and the run never
        materializes the plan's reference factor while reporting
        ``stopped_by`` (the ``test_stopping_integration`` invariants).
        """
        plan = build_plan(grid2d_poisson(8), n_subdomains=4, seed=0)
        specs = extract_shards(plan, 2)
        rng = np.random.default_rng(seed)
        waves = np.zeros(plan.fleet_template.n_slots_total)
        x0_flat = np.concatenate([loc.x0 for loc in plan.base_locals])
        state_off = np.concatenate(
            [[0], np.cumsum([loc.n_local for loc in plan.base_locals])])
        for spec in specs:
            spec.kernel.load_x0(x0_flat[spec.state_lo:spec.state_hi])

        def gather():
            states = np.concatenate(
                [spec.kernel.full_states(
                    waves[spec.slot_lo:spec.slot_hi].copy())
                 for spec in specs])
            return plan.split.gather(
                [states[state_off[q]:state_off[q + 1]]
                 for q in range(plan.n_parts)])

        rule, monitor, _ = begin_monitor(
            ResidualRule(tol=1e-6), tol=None,
            system=(plan.a_mat, plan.base_b))
        pending: list[tuple[int, EdgeMailbox, np.ndarray]] = []
        event = None
        for rnd in range(600):
            # fair but arbitrary: each round sweeps every shard once in
            # a drawn order; cross-shard posts may lag up to max_lag
            # rounds and are applied in a drawn order (so an older
            # in-flight wave can be overwritten by a newer one — the
            # latest-wins semantics under test)
            for k in rng.permutation(len(specs)):
                spec = specs[k]
                out = spec.kernel.sweep(
                    waves[spec.slot_lo:spec.slot_hi].copy())
                EdgeMailbox(spec.loopback, waves).post(out)
                for box in spec.outboxes:
                    lag = int(rng.integers(0, max_lag + 1))
                    pending.append(
                        (rnd + lag, EdgeMailbox(box, waves), out.copy()))
            due = [p for p in pending if p[0] <= rnd]
            pending = [p for p in pending if p[0] > rnd]
            for i in rng.permutation(len(due)):
                _, box, out = due[i]
                box.post(out)
            event = monitor.update(float(rnd + 1), StateProbe(gather))
            if event is not None:
                break
        assert event is not None, "chaotic schedule failed to converge"
        assert event.rule == "residual"  # stopped_by is reported
        assert event.converged
        assert not plan.reference_materialized
        assert relative_residual(plan.a_mat, gather(), plan.base_b) \
            <= 1e-6


# ----------------------------------------------------------------------
# the stop protocol, against a scripted port (no process, no clock)
# ----------------------------------------------------------------------
class ScriptedPort(WorkerPort):
    """In-memory worker port presenting scripted EPOCH/STOP words.

    ``stop_after`` sweeps of an epoch, STOP is raised to it; an ack —
    or, with ``idle_waits``, that many idle waits after it — starts
    the next epoch until ``epochs`` have been served, the last one ends
    the script by requesting shutdown.  ``log`` keeps the order of
    everything the loop did.
    """

    def __init__(self, spec, x0, *, epoch, stop, stop_after=None,
                 epochs=1, idle_waits=0):
        self.epoch = epoch
        self.stop = stop
        self.stop_after = stop_after
        self.idle_waits = idle_waits
        self.last_epoch = epoch + epochs - 1
        self.x0 = x0[spec.state_lo:spec.state_hi]
        self.waves = np.zeros(spec.slot_hi - spec.slot_lo)
        self.loop_local = spec.loopback.dest_slots - spec.slot_lo
        self.loop_pos = spec.loopback.emit_pos
        self.sweeps = 0
        self.epoch_start = 0
        self.log = []
        self.shutdown = False

    def shutdown_requested(self):
        return self.shutdown

    def current_epoch(self):
        return self.epoch

    # epoch defaults to None only so the pre-fix loop, which called
    # stop_requested() and read STOP as a flag, spins here (the bug)
    # instead of dying on a TypeError
    def stop_requested(self, epoch=None):
        return bool(self.stop) if epoch is None else self.stop >= epoch

    def read_x0(self):
        return self.x0

    def wave_snapshot(self):
        return self.waves.copy()

    def post_waves(self, out):
        self.waves[self.loop_local] = out[self.loop_pos]

    def record_sweeps(self, total):
        self.sweeps = total
        self.log.append(("sweep", total))
        if self.stop_after is not None \
                and total - self.epoch_start >= self.stop_after:
            self.stop = self.epoch

    def publish_states(self, states, sweeps):
        self.log.append(("publish", sweeps))

    def ack(self, epoch):
        self.log.append(("ack", epoch))
        if not self.idle_waits:
            self._move_on()

    def idle_wait(self, idle_sleep):
        self.log.append(("idle", idle_sleep))
        if len(self.events("idle")) % self.idle_waits == 0:
            self._move_on()

    def _move_on(self):
        if self.epoch >= self.last_epoch:
            self.shutdown = True
        else:
            self.epoch += 1
            self.epoch_start = self.sweeps

    def events(self, kind):
        return [value for k, value in self.log if k == kind]


class TestStopProtocol:
    def _drive(self, poisson_plan, **script):
        spec = extract_shards(poisson_plan, 2)[0]
        x0 = np.concatenate([loc.x0 for loc in poisson_plan.base_locals])
        port = ScriptedPort(spec, x0, **script)
        with mock.patch.object(
                spec.kernel, "full_states",
                wraps=spec.kernel.full_states) as full_states:
            worker = threading.Thread(
                target=_run_worker, args=(spec, port, 1e-4), daemon=True)
            worker.start()
            worker.join(timeout=10.0)
            hung = worker.is_alive()
            port.shutdown = True  # release a spinning loop either way
            worker.join(timeout=10.0)
        assert not hung, "worker never acknowledged the epoch"
        port.n_full_states = full_states.call_count
        return port

    def test_stop_raised_before_the_worker_saw_the_epoch(
            self, poisson_plan):
        """A look aimed at (or cut by the budget to) almost nothing:
        STOP(N) can overtake a descheduled worker's view of EPOCH=N.
        It must end epoch N — zero sweeps, one publish, one ack — not
        be waited out as a leftover while the coordinator waits for
        the ack."""
        port = self._drive(poisson_plan, epoch=3, stop=3)
        assert port.log == [("publish", 0), ("ack", 3)]
        assert port.n_full_states == 1

    def test_leftover_stop_does_not_end_the_next_epoch(
            self, poisson_plan):
        """STOP still names epoch N-1 when N starts (begin_epoch no
        longer clears it): the worker sweeps until STOP reaches N."""
        port = self._drive(poisson_plan, epoch=3, stop=2, stop_after=5)
        assert port.events("ack") == [3]
        assert port.sweeps == 5

    def test_interiors_are_computed_once_per_epoch(self, poisson_plan):
        """The loop touches ports only: however long an epoch sweeps,
        ``full_states`` runs (and is published) exactly once — after
        STOP, before the ack — and never between two sweeps."""
        port = self._drive(poisson_plan, epoch=1, stop=0, stop_after=40,
                           epochs=3)
        assert port.sweeps == 120
        assert port.n_full_states == 3
        assert port.events("publish") == [40, 80, 120]
        assert port.events("ack") == [1, 2, 3]
        for i, (kind, _) in enumerate(port.log):
            if kind == "publish":
                assert port.log[i + 1][0] == "ack"

    def test_between_epochs_the_loop_waits_on_its_port(self, poisson_plan):
        """How an idle shard waits is the fabric's business — shm
        blocks on a wake semaphore, the default is a poll nap — so the
        loop asks the port, and re-reads EPOCH and SHUTDOWN after every
        return: a wait that returns early (a leftover wake, the
        blocking port's patience) is an empty pass, not an epoch."""
        port = self._drive(poisson_plan, epoch=1, stop=0, stop_after=4,
                           epochs=2, idle_waits=3)
        assert port.events("idle") == [1e-4] * 6
        assert port.events("ack") == [1, 2]
        assert port.sweeps == 8 and port.n_full_states == 2
        assert [kind for kind, _ in port.log[-4:]] \
            == ["ack", "idle", "idle", "idle"]


# ----------------------------------------------------------------------
# look pacing, against a scripted coordinator port and a fake clock
# ----------------------------------------------------------------------
class FakeClock:
    """``time`` stand-in for the runner: only naps move the clock."""

    def __init__(self):
        self.now = 1000.0
        self.naps = []

    def perf_counter(self):
        return self.now

    def sleep(self, seconds):
        assert seconds >= 0.0
        self.naps.append(seconds)
        self.now += seconds


class ScriptedCoordinatorPort(CoordinatorPort):
    """Workers replaced by a script: ``residual_of(seconds since the
    right-hand side landed)`` is the relative residual of what the
    shards hold, they keep sweeping until they ack, ``ack_delay``
    seconds after STOP names the epoch, and then hold still until the
    next epoch begins.  Reading states outside that quiesced window is
    an error: a look must measure what the shards hold at the look."""

    def __init__(self, plan, clock, n_shards):
        self.plan = plan
        self.clock = clock
        self.n_shards = n_shards
        self.residual_of = None
        self.ack_delay = 0.0
        self.t0 = clock.now
        self.epoch = 0
        self.stop = 0
        self.stop_time = 0.0
        self.epochs = []  # every begin_epoch
        self.stops = []  # (epoch, solve time) per signal_stop
        self.served = []  # (solve time held, residual) per read_states
        self.wave_writes = 0
        self.wave_level = 0.0
        n = plan.n
        self.x_star = np.linalg.solve(plan.a_mat.to_dense(), plan.base_b)
        e = np.random.default_rng(0).standard_normal(n)
        self.e = e * (np.linalg.norm(plan.base_b)
                      / np.linalg.norm(plan.a_mat.matvec(e)))
        self.n_slots = plan.fleet_template.n_slots_total

    def begin_epoch(self, epoch):
        self.epoch = epoch
        self.epochs.append(epoch)

    def signal_stop(self, epoch):
        assert epoch == self.epoch, "STOP names the epoch it ends"
        self.stop = epoch
        self.stop_time = self.clock.now
        self.stops.append((epoch, self.clock.now - self.t0))

    def shutdown(self):
        pass

    def write_x0(self, x0):
        self.t0 = self.clock.now

    def write_waves(self, waves):
        self.wave_writes += 1

    def read_waves(self):
        return np.full(self.n_slots, self.wave_level)

    def _quiesced(self):
        return self.stop == self.epoch \
            and self.clock.now >= self.stop_time + self.ack_delay

    def read_states(self):
        assert self._quiesced(), "states read while the shards run"
        t = self.stop_time + self.ack_delay - self.t0
        r = float(self.residual_of(t))
        self.served.append((t, r))
        return np.concatenate(
            self.plan.split.spread(self.x_star + r * self.e))

    def sweep_counts(self):
        return np.zeros(self.n_shards, dtype=np.int64)

    def acks(self):
        return np.full(self.n_shards,
                       self.stop if self._quiesced() else 0)

    def failed_shard(self):
        return 0

    def close(self):
        pass


class ScriptedTransport(Transport):
    name = "scripted"

    def __init__(self, plan, clock):
        self.plan = plan
        self.clock = clock
        self.port = None

    def bind(self, specs, **_):
        self.port = ScriptedCoordinatorPort(self.plan, self.clock,
                                            len(specs))
        return self.port

    def close(self):
        pass


@contextmanager
def scripted_runner(plan, **runner_kwargs):
    """``(runner, port, clock)`` with the runner's clock faked."""
    clock = FakeClock()
    transport = ScriptedTransport(plan, clock)
    with mock.patch.object(multiproc, "time", clock):
        with MultiprocDtmRunner(plan, shards=2, transport=transport,
                                spawn_workers=False,
                                **runner_kwargs) as runner:
            yield runner, transport.port, clock


def geometric(crossing, tol=1e-6, r0=0.5, start=0.0005):
    """``r(t)``: ``r0`` until *start*, then a log-line reaching *tol*
    at *crossing* — the shape of a real solve (workers wake within an
    idle nap; measured decay lines extrapolate back to 0.3–1)."""
    rate = math.log(r0 / tol) / (crossing - start)
    return lambda t: r0 * math.exp(-rate * max(0.0, t - start))


class TestProbePacing:
    TOL = 1e-6
    IDLE = 1e-3  # the runner's default idle_sleep

    def _solve(self, runner, port, residual_of, **kw):
        port.residual_of = residual_of
        first = len(port.served)
        res = runner.solve(stopping=ResidualRule(tol=self.TOL), **kw)
        return res, port.served[first:]

    @pytest.mark.parametrize("crossing", [0.004, 0.006, 0.0085])
    def test_geometric_decay_is_stopped_at_its_crossing(
            self, poisson_plan, crossing):
        with scripted_runner(poisson_plan) as (runner, port, _):
            script = geometric(crossing, self.TOL)
            cold, _ = self._solve(runner, port, script)
            assert cold.converged and cold.stopped_by == "residual"
            assert len(cold.errors) <= 3
            for _ in range(3):
                seeded, _ = self._solve(runner, port, script)
                assert seeded.converged
                assert len(seeded.errors) <= 2
                assert crossing <= port.stops[-1][1] \
                    <= crossing + self.IDLE
            # the steady state: one look, placed just past the crossing
            assert len(seeded.errors) == 1

    def test_rate_survives_a_change_of_tolerance(self, poisson_plan):
        """The learned slope is the plan's: a tighter tolerance on the
        next solve moves the first look out along the same line."""
        with scripted_runner(poisson_plan) as (runner, port, _):
            script = geometric(0.006, 1e-6)
            for _ in range(3):
                self._solve(runner, port, script)
            port.residual_of = script
            res = runner.solve(stopping=ResidualRule(tol=1e-8))
            assert res.converged and len(res.errors) <= 2
            assert res.relative_residual <= 1e-8

    def test_a_look_is_one_quiesced_measurement(self, poisson_plan):
        """Every look — the ones that resume and the one that ends the
        solve, converged or out of budget — reads the states once and
        multiplies by the matrix once: nothing is measured twice."""
        with scripted_runner(poisson_plan) as (runner, port, _), \
                mock.patch.object(
                    CsrMatrix, "matvec", autospec=True,
                    side_effect=CsrMatrix.matvec) as matvec:
            for script, budget in ((geometric(0.02), 60.0),  # cold
                                   (geometric(0.02), 60.0),  # seeded
                                   (lambda t: 1e-3, 0.025)):  # no stop
                del port.stops[:]
                matvec.reset_mock()
                res, served = self._solve(runner, port, script,
                                          wall_budget=budget)
                assert res.converged == (budget == 60.0)
                assert len(res.errors) >= 2
                assert len(port.stops) == len(served) == len(res.errors)
                assert matvec.call_count == len(res.errors)
                assert res.relative_residual == res.errors.values[-1] \
                    == pytest.approx(served[-1][1], rel=1e-6)

    def test_a_look_above_tol_resumes_on_untouched_waves(
            self, poisson_plan):
        """done | resume: each look is its own epoch, STOP names it,
        and the only thing between two looks of a solve is the next
        ``begin_epoch`` — the live waves are not rewritten."""
        with scripted_runner(poisson_plan) as (runner, port, _):
            first_epoch = runner._epoch + 1
            res, served = self._solve(runner, port, geometric(0.03))
            n = len(served)
            assert res.converged and n >= 3
            assert port.epochs == list(range(first_epoch, first_epoch + n))
            assert [epoch for epoch, _ in port.stops] == port.epochs
            assert port.wave_writes == 1  # the solve's own reset
            assert all(r > self.TOL for _, r in served[:-1])
            assert served[-1][1] <= self.TOL

    @pytest.mark.parametrize("script", [
        lambda t: 1e-3,  # stalled
        lambda t: 1e-3 * math.exp(40.0 * t),  # rising
    ], ids=["stalled", "rising"])
    def test_no_decay_falls_back_to_the_ceiling_cadence(
            self, poisson_plan, script):
        with scripted_runner(poisson_plan) as (runner, port, clock):
            res, served = self._solve(runner, port, script,
                                      wall_budget=0.085)
            assert not res.converged
            naps = clock.naps[:-1]  # the last one is cut by the budget
            assert all(nap <= PROBE_CEILING for nap in naps)
            # from the first sample that failed to fall, never more
            # often than doubling allows, and on to the ceiling
            for prev, nap in zip(naps[1:], naps[2:]):
                assert nap >= min(PROBE_CEILING, 2.0 * prev) - 1e-12
            assert naps[-3:] == [PROBE_CEILING] * 3
            assert len(served) <= 4 + 0.085 / PROBE_CEILING

    def test_quiescence_rule_keeps_the_fixed_cadence(self, poisson_plan):
        """Its metric is the wave change per sample interval: the
        interval must not depend on any residual."""
        with scripted_runner(poisson_plan) as (runner, port, clock):
            port.residual_of = geometric(0.004)
            for _ in range(2):  # a learned rate must not leak in either
                runner.solve(stopping=ResidualRule(tol=self.TOL))
            del clock.naps[:]
            res = runner.solve(stopping=QuiescenceRule(threshold=1e-10),
                               wall_budget=0.055)
            assert not res.converged  # scripted waves never move
            assert clock.naps[:5] == [PROBE_CEILING] * 5
            # and a residual rule riding along does not unpin it
            del clock.naps[:]
            port.residual_of = lambda t: 1e-2
            runner.solve(stopping=ResidualRule(tol=self.TOL)
                         | QuiescenceRule(threshold=1e-10),
                         wall_budget=0.035)
            assert clock.naps[:3] == [PROBE_CEILING] * 3

    def test_a_scheduling_stall_is_not_quiescence(self, poisson_plan):
        """Waves that merely stopped changing (workers preempted) fire
        the rule's patience, but one more sweep would still move them:
        the fixed-point delta on the quiesced state says so, and the
        solve looks on — with a fresh monitor — instead of stopping."""
        with scripted_runner(poisson_plan) as (runner, port, _):
            port.residual_of = lambda t: 1e-2
            port.wave_level = 1.0  # active, then unchanged for good
            res = runner.solve(
                stopping=QuiescenceRule(threshold=1e-10, patience=2),
                wall_budget=0.095)
            assert not res.converged and res.stopped_by is None
            # patience is met at every third look; each time a monitor
            # is dropped, its first look only snapshots
            assert len(port.stops) >= 9
            assert len(res.errors) == len(port.stops) \
                - math.ceil(len(port.stops) / 3)
            assert res.relative_residual == pytest.approx(1e-2, rel=1e-6)

    def test_no_nap_outlives_the_ceiling_or_the_wall_budget(
            self, poisson_plan):
        """A budget shorter than the ceiling used to be slept through;
        and a look aimed past the ceiling is a measured hazard, not a
        formality: the first chord of a fresh mesh runner absorbs its
        workers' boot time, and following it gave a 10 s first solve."""
        with scripted_runner(poisson_plan) as (runner, port, clock):
            port.ack_delay = 3e-4
            port.residual_of = geometric(0.5)
            start = clock.now
            res = runner.solve(stopping=ResidualRule(tol=self.TOL),
                               wall_budget=0.002)
            assert not res.converged and res.stopped_by is None
            assert clock.now - start <= 0.002 + port.ack_delay + self.IDLE
            # ... also when the learned rate asks for a long first nap
            for _ in range(3):
                self._solve(runner, port, geometric(0.008))
            port.residual_of = geometric(0.5)
            start = clock.now
            res = runner.solve(stopping=ResidualRule(tol=self.TOL),
                               wall_budget=0.002)
            assert not res.converged
            assert clock.now - start <= 0.002 + port.ack_delay + self.IDLE
            # ... and a slow line (booting workers: 2 s to the crossing)
            # is looked at every ceiling, never slept towards
            del clock.naps[:]
            res, _ = self._solve(runner, port, geometric(2.0, start=1.5),
                                 wall_budget=60.0)
            assert res.converged
            assert max(clock.naps) <= PROBE_CEILING

    def test_dear_looks_are_taken_once_at_the_reach(
            self, poisson_plan):
        """A seeded solve whose looks are dear (12 ms here, 8–10 at
        nx=240) looks once, at a fixed wall time three ceilings out —
        napped a ceiling at a time with a health check in between —
        and a crossing that wanders a quarter either way (a shard that
        lost its core for a while) moves neither the look nor their
        number.  Only a rate learned from three finished solves
        reaches past the ceiling."""
        with scripted_runner(poisson_plan) as (runner, port, clock):
            port.ack_delay = 0.012
            for _ in range(3):
                self._solve(runner, port, geometric(0.010))
            assert max(t for _, t in port.stops) <= PROBE_CEILING
            checks = []
            with mock.patch.object(
                    runner, "_check_workers",
                    side_effect=lambda: checks.append(len(clock.naps))):
                for crossing in (0.010, 0.0125, 0.0075):
                    del clock.naps[:], checks[:]
                    res, served = self._solve(runner, port,
                                              geometric(crossing))
                    assert res.converged and len(served) == 1
                    assert port.stops[-1][1] == pytest.approx(_REACH)
                    assert clock.naps[:3] == pytest.approx(
                        [PROBE_CEILING] * 3)
                    assert {1, 2} <= set(checks)  # between the naps

    def test_ack_wait_backs_off_from_microseconds(self, poisson_plan):
        with scripted_runner(poisson_plan) as (runner, port, clock):
            port.ack_delay = 4e-3
            port.residual_of = geometric(0.004)
            stopped = []
            signal_stop = port.signal_stop
            port.signal_stop = lambda epoch: (
                signal_stop(epoch), stopped.append(len(clock.naps)))
            runner.solve(stopping=ResidualRule(tol=self.TOL))
            handshake = clock.naps[stopped[0]:]
            assert handshake[:4] == [2e-5, 4e-5, 8e-5, 1.6e-4]
            assert max(handshake) == self.IDLE
            assert clock.now - port.stop_time <= port.ack_delay + self.IDLE

    def test_slow_acks_past_the_budget_are_not_spun_on(
            self, poisson_plan):
        """Once the budget is spent it bounds no nap any more: the ack
        wait must grow back to ``idle_sleep``, not pin at its first
        step while a slow shard sweeps on."""
        with scripted_runner(poisson_plan) as (runner, port, clock):
            port.ack_delay = 0.05
            port.residual_of = geometric(0.5)
            # (the budget cuts the first nap short: STOP is raised at
            # the very moment it runs out)
            res = runner.solve(stopping=ResidualRule(tol=self.TOL),
                               wall_budget=5e-4)
            assert not res.converged
            handshake = [nap for nap, t in zip(clock.naps, np.cumsum(
                clock.naps)) if t > 5e-4]
            assert handshake[:3] == [2e-5, 4e-5, 8e-5]
            assert handshake[-1] == self.IDLE
            assert len(handshake) <= 8 + port.ack_delay / self.IDLE

    def test_wrongly_seeded_rate_costs_a_bounded_number_of_looks(
            self, poisson_plan):
        """A host that got 5x slower between two solves: the third
        sample of the slow solve measures its slope, so the seed is
        paid for with two looks, not a geometric re-look down to the
        floor."""
        with scripted_runner(poisson_plan) as (runner, port, _):
            for _ in range(3):
                self._solve(runner, port, geometric(0.004))
            slow, _ = self._solve(runner, port, geometric(0.020))
            assert slow.converged
            assert len(slow.errors) <= 4
            assert 0.020 <= port.stops[-1][1] <= 0.020 + 2 * self.IDLE

    @given(crossings=st.lists(st.floats(0.0015, 0.06), min_size=2,
                              max_size=4),
           r0=st.floats(1e-3, 0.9),
           wobble=st.floats(0.0, 0.6),
           budget=st.sampled_from([60.0, 60.0, 0.02]))
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_converged_means_the_last_quiesced_measurement_met_tol(
            self, poisson_plan, crossings, r0, wobble, budget):
        """Solves whose decay keeps changing under the pacer (so its
        learned rate is wrong every time) and wobbles around its line:
        a prediction may misplace a look, never decide one.  What the
        solve reports is what its last look measured on the quiesced
        shards — converged exactly when that was within tolerance."""
        with scripted_runner(poisson_plan) as (runner, port, _):
            for k, crossing in enumerate(crossings):
                line = geometric(crossing, self.TOL, r0=r0)
                res, served = self._solve(
                    runner, port,
                    lambda t: line(t) * (1.0 + wobble * math.sin(
                        3e3 * t + k)),
                    wall_budget=budget)
                t_held, held = served[-1]
                measured = res.errors.values[-1]
                assert measured == pytest.approx(held, rel=1e-6)
                assert res.converged == (measured <= self.TOL)
                assert res.relative_residual == measured
                assert np.all(res.errors.values[:-1] > self.TOL)
                # measured on what the shards held after the last STOP
                assert t_held >= port.stops[-1][1]
                if budget == 60.0:
                    assert res.converged

    def test_probe_trace_and_histograms(self, poisson_plan):
        with scripted_runner(poisson_plan, obs=True) as (runner, port, _):
            script = geometric(0.006)
            for _ in range(3):
                res, _ = self._solve(runner, port, script, trace=True)
            probes = [r for r in res.trace.records
                      if r["kind"] == "probe"]
            assert len(probes) == len(res.errors) == 1
            (probe,) = probes
            assert probe["epoch"] == port.epochs[-1]
            assert probe["residual"] == res.errors.values[0]
            assert probe["crossing"] == pytest.approx(0.006, abs=5e-4)
            assert 0.0 < probe["next_delay"] <= PROBE_CEILING
            snap = runner.metrics_snapshot()
            assert snap.value("repro_runner_stop_probes")["count"] == 3
            overshoot = snap.value("repro_runner_stop_overshoot_seconds")
            assert overshoot["count"] == 3
            assert overshoot["sum"] < 3 * 2e-3


class TestProbePacer:
    """The schedule alone (no runner, no clock)."""

    def test_cold_delays_grow_from_floor_to_ceiling(self):
        pacer = _ProbePacer(1e-3)
        pacer.start(None, fixed=False)  # nothing to extrapolate
        delays = [pacer.next(0.0)[0]]
        for _ in range(5):
            delays.append(pacer.next(sum(delays))[0])
        assert delays == [1e-3, 2e-3, 4e-3, 8e-3, 1e-2, 1e-2]

    def test_line_through_one_sample(self):
        pacer = _ProbePacer(1e-3)
        pacer.start(1e-6, fixed=False)
        delay, crossing = pacer.next(0.002, 1e-2)  # 2 decades in 2 ms
        assert crossing == pytest.approx(0.006)
        assert delay == pytest.approx(0.0045)  # half a decade past it
        assert pacer.rate is None  # learned only by finished solves
        pacer.finish()
        assert pacer.rate == pytest.approx(math.log(100.0) / 0.002)

    def test_sample_above_the_learned_line_is_a_late_start(self):
        pacer = _ProbePacer(1e-3)
        pacer.start(1e-6, fixed=False)
        pacer.next(0.006, 1e-6)
        pacer.finish()  # one decade per ms
        pacer.start(1e-6, fixed=False)
        assert pacer.next(0.0)[1] == pytest.approx(0.006)
        # 4 ms in and only one decade down: three more, at the learned
        # slope — not fifteen at this solve's chord
        delay, crossing = pacer.next(0.004, 1e-3)
        assert crossing == pytest.approx(0.007)
        assert delay == pytest.approx(0.0035)

    def test_third_sample_measures_the_slope(self):
        pacer = _ProbePacer(1e-3)
        pacer.start(1e-6, fixed=False)
        pacer.next(0.006, 1e-6)
        pacer.finish()  # one decade per ms
        pacer.start(1e-6, fixed=False)
        # twice read as a late start: four, then three ms to go
        assert pacer.next(0.006, 1e-2)[1] == pytest.approx(0.010)
        assert pacer.next(0.009, 1e-3)[1] == pytest.approx(0.012)
        # ... but it is one decade down per 3 ms, again: from here on
        # the solve's own two last samples say when
        delay, crossing = pacer.next(0.012, 1e-4)
        assert crossing == pytest.approx(0.018)
        assert delay == pytest.approx(0.0075)  # half a decade past it

    def test_residual_above_one_has_no_chord(self):
        """Spawning workers: the first gathers see garbage above the
        zero state's residual, falling or not."""
        pacer = _ProbePacer(1e-3)
        pacer.start(1e-6, fixed=False)
        assert pacer.next(0.001, 1.5) == (1e-3, None)
        assert pacer.next(0.002, 1.2) == (2e-3, None)
        assert pacer.next(0.004, 1e-2)[1] == pytest.approx(0.012)

    def test_delay_clamped_to_floor_and_ceiling(self):
        pacer = _ProbePacer(1e-3)
        pacer.start(1e-6, fixed=False)
        assert pacer.next(0.001, 0.5)[0] == 1e-2  # crossing far away
        assert pacer.next(0.0105, 1.1e-6)[0] == 1e-3  # crossing now

    @pytest.mark.parametrize("cost, first", [
        (None, 0.0065),  # no look timed yet: the line's aim
        (0.002, 0.0065),  # nx=100 on shm
        (0.005, 0.0065),  # half a ceiling (the mesh at nx=100: 3–5 ms)
        (0.00625, 0.01825),  # half way from there ...
        (0.0075, _REACH),  # ... to three quarters of a ceiling
        (0.012, _REACH),  # nx=240: 8–10 ms
    ])
    def test_dear_looks_move_the_first_seeded_look_to_the_reach(
            self, cost, first):
        pacer = _ProbePacer(1e-3)
        for _ in range(3):  # one decade per ms
            pacer.start(1e-6, fixed=False)
            pacer.next(0.006, 1e-6, cost)
            pacer.finish()
        pacer.start(1e-6, fixed=False)
        delay, crossing = pacer.next(0.0)
        assert crossing == pytest.approx(0.006)
        assert delay == pytest.approx(first)
        # the solve's own samples aim at the line, under the ceiling
        assert pacer.next(0.002, 1e-1, cost)[0] == pytest.approx(0.0055)

    def test_the_reach_needs_a_rate_learned_from_three_solves(self):
        pacer = _ProbePacer(1e-3)
        delays = []
        for _ in range(4):  # six decades in 15 ms, looks of 12 ms
            pacer.start(1e-6, fixed=False)
            delays.append(pacer.next(0.0)[0])
            pacer.next(0.015, 1e-6, 0.012)
            pacer.finish()
        assert delays == [1e-3, PROBE_CEILING, PROBE_CEILING, _REACH]


# ----------------------------------------------------------------------
# shards=1: the bitwise contract
# ----------------------------------------------------------------------
class TestShardsOneBitwise:
    @pytest.mark.parametrize("plan_fixture",
                             ["poisson_plan", "circuit_plan"])
    def test_bitwise_identical_to_fleet_session(self, plan_fixture,
                                                request):
        plan = request.getfixturevalue(plan_fixture)
        rule = ResidualRule(tol=1e-8)
        with MultiprocDtmRunner(plan, shards=1) as runner:
            got = runner.solve(stopping=rule, t_max=50_000, tol=None)
        want = SolverSession(plan).solve(stopping=rule, t_max=50_000,
                                         tol=None)
        assert np.array_equal(got.x, want.x)
        assert got.iterations == want.iterations
        assert got.stopped_by == want.stopped_by
        assert got.converged and want.converged

    def test_reference_rule_allowed_on_simulator_path(self, circuit_plan):
        with MultiprocDtmRunner(circuit_plan, shards=1) as runner:
            res = runner.solve(stopping=ReferenceRule(tol=1e-8),
                               t_max=50_000)
        assert res.converged


# ----------------------------------------------------------------------
# shards>1: true-parallel convergence to tolerance
# ----------------------------------------------------------------------
class TestMultiprocSolve:
    def test_residual_converges_to_tolerance(self, poisson_plan, runner):
        res = runner.solve(stopping=ResidualRule(tol=TOL),
                           wall_budget=60.0)
        assert res.converged
        assert res.stopped_by == "residual"
        assert res.relative_residual <= TOL
        assert np.isnan(res.rms_error)
        assert not poisson_plan.reference_materialized
        x_ref = direct_solution(poisson_plan)
        assert np.max(np.abs(res.x - x_ref)) < 1e-5
        assert res.shard_reports is not None
        assert len(res.shard_reports) == 3
        assert all(rep.sweeps > 0 for rep in res.shard_reports)
        assert res.iterations == sum(rep.subdomain_solves
                                     for rep in res.shard_reports)

    def test_rhs_swap_on_warm_pool(self, poisson_plan, runner):
        rng = np.random.default_rng(7)
        b2 = rng.standard_normal(poisson_plan.n)
        res = runner.solve(b2, stopping=ResidualRule(tol=TOL),
                           wall_budget=60.0)
        assert res.converged
        assert relative_residual(poisson_plan.a_mat, res.x, b2) <= TOL
        assert np.max(np.abs(res.x - direct_solution(poisson_plan, b2))) \
            < 1e-5
        assert res.plan_reused

    def test_warm_start_flag(self, runner):
        cold = runner.solve(stopping=ResidualRule(tol=TOL))
        warm = runner.solve(stopping=ResidualRule(tol=TOL),
                            warm_start=True)
        assert not cold.warm_started
        assert warm.warm_started
        assert warm.converged

    def test_quiescence_rule(self, poisson_plan, runner):
        res = runner.solve(stopping=QuiescenceRule(threshold=1e-10),
                           wall_budget=60.0)
        assert res.converged
        assert res.stopped_by == "quiescence"
        assert res.relative_residual < 1e-6
        assert not poisson_plan.reference_materialized

    def test_default_stopping_is_residual(self, runner):
        res = runner.solve(tol=1e-7)
        assert res.stopped_by == "residual"
        assert res.relative_residual <= 1e-7

    def test_four_shards(self, poisson_plan):
        with MultiprocDtmRunner(poisson_plan, shards=4) as r:
            res = r.solve(stopping=ResidualRule(tol=TOL),
                          wall_budget=60.0)
        assert res.converged
        assert res.relative_residual <= TOL

    def test_reference_rule_rejected(self, runner):
        with pytest.raises(ConfigurationError):
            runner.solve(stopping=ReferenceRule(tol=1e-8))

    def test_too_many_shards_rejected(self, poisson_plan):
        with pytest.raises(ConfigurationError):
            MultiprocDtmRunner(poisson_plan,
                               shards=poisson_plan.n_parts + 1)

    def test_vtm_plan_rejected(self):
        plan = build_plan(grid2d_poisson(6), mode="vtm", n_subdomains=4)
        with pytest.raises(ConfigurationError):
            MultiprocDtmRunner(plan, shards=2)

    def test_closed_runner_raises(self, poisson_plan):
        r = MultiprocDtmRunner(poisson_plan, shards=2)
        r.close()
        with pytest.raises(MultiprocError):
            r.solve()
        r.close()  # idempotent


# ----------------------------------------------------------------------
# the paper's systems on real workers
# ----------------------------------------------------------------------
class TestPaperSystems:
    """Example 5.1 (system (3.2), two subdomains, asymmetric delays) and
    an EVS-split random grid, run by free workers to the exact answer."""

    @pytest.fixture(scope="class")
    def paper_plan(self):
        return build_plan(split=paper_split(),
                          topology=custom_topology(example_5_1_delays()),
                          impedance=example_5_1_impedances())

    @pytest.fixture(scope="class")
    def exact(self):
        return paper_system_3_2().exact_solution()

    def test_converges_to_exact_solution(self, paper_plan, exact):
        with MultiprocDtmRunner(paper_plan, shards=2) as r:
            res = r.solve(stopping=ResidualRule(tol=1e-10),
                          wall_budget=60.0)
        assert res.converged
        assert np.allclose(res.x, exact, atol=1e-7)
        assert all(rep.subdomain_solves > 0 for rep in res.shard_reports)

    def test_runs_are_nondeterministic_but_converge(self, paper_plan,
                                                    exact):
        """Different schedules, same destination (Theorem 6.1)."""
        runs = []
        for _ in range(2):
            with MultiprocDtmRunner(paper_plan, shards=2) as r:
                runs.append(r.solve(stopping=ResidualRule(tol=1e-9),
                                    wall_budget=60.0))
        for res in runs:
            assert res.converged
            assert np.max(np.abs(res.x - exact)) < 1e-6
        # sweep counts typically differ between runs; don't assert them

    def test_quiescence_stops_traffic(self, paper_plan, exact):
        with MultiprocDtmRunner(paper_plan, shards=2) as r:
            res = r.solve(stopping=QuiescenceRule(threshold=1e-10),
                          wall_budget=60.0)
        assert res.converged and res.stopped_by == "quiescence"
        assert np.max(np.abs(res.x - exact)) < 1e-6

    def test_validation(self, paper_plan):
        with pytest.raises(ConfigurationError):
            MultiprocDtmRunner(paper_plan, shards=0)
        with pytest.raises(ConfigurationError):
            MultiprocDtmRunner(paper_plan, shards=2, idle_sleep=0.0)
        with pytest.raises(ConfigurationError):
            MultiprocDtmRunner(paper_plan, shards=3)

    @pytest.mark.parametrize("transport", ["shm", "mesh"])
    def test_four_subdomain_mesh(self, transport):
        g = grid2d_random(7, seed=5)
        split = split_graph(g, grid_block_partition(7, 7, 2, 2),
                            strategy=DominancePreservingSplit())
        topo = mesh_topology(2, 2, delay_low=5, delay_high=20, seed=1)
        plan = build_plan(split=split, topology=topo, impedance=1.0)
        with MultiprocDtmRunner(plan, shards=2, transport=transport) as r:
            res = r.solve(stopping=ResidualRule(tol=1e-8),
                          wall_budget=60.0)
        assert res.converged
        assert np.max(np.abs(res.x - direct_solution(plan))) < 1e-5

    def test_runner_from_plan_leaves_template_untouched(self, paper_plan,
                                                        exact):
        with MultiprocDtmRunner(paper_plan, shards=2) as r:
            res = r.solve(stopping=ResidualRule(tol=1e-8),
                          wall_budget=60.0)
        assert np.allclose(res.x, exact, atol=1e-5)
        # the workers ran on their own copies of the plan's fleet
        assert np.all(paper_plan.fleet_template.waves == 0.0)


class TestLookSoak:
    """Time-boxed soak of the look protocol on real workers."""

    SOLVES = 100
    BOX = 120.0  # seconds; ~2 s on shm and ~5 s on mesh on a quiet host

    @pytest.mark.parametrize("transport", ["shm", "mesh"])
    def test_every_rhs_twice_in_a_row(self, poisson_plan, transport):
        """The same right-hand side twice is the sequence that hung
        PR 13's stop protocol, and the second of a pair is where a look
        that measured stale states would report a solve it never ran.
        No ack may time out (that raises) and no solve may end
        unconverged or wrong."""
        rng = np.random.default_rng(17)
        plan = poisson_plan
        started = time.monotonic()
        served = 0
        with MultiprocDtmRunner(plan, shards=2, transport=transport,
                                ack_timeout=10.0) as r:
            for _ in range(self.SOLVES // 2):
                b = rng.standard_normal(plan.n)
                for _ in range(2):
                    res = r.solve(b, stopping=ResidualRule(tol=1e-6),
                                  wall_budget=20.0)
                    assert res.converged and res.stopped_by == "residual"
                    assert relative_residual(plan.a_mat, res.x, b) <= 1e-6
                    assert all(rep.sweeps > 0
                               for rep in res.shard_reports)
                    served += 1
                assert time.monotonic() - started < self.BOX
        assert served >= self.SOLVES


# ----------------------------------------------------------------------
# api backend switch
# ----------------------------------------------------------------------
class TestApiBackend:
    def test_multiproc_backend(self):
        g = grid2d_poisson(16)
        res = solve_dtm(g, n_subdomains=6, seed=2, backend="multiproc",
                        shards=2, stopping=ResidualRule(tol=1e-7),
                        wall_budget=60.0)
        assert res.converged
        assert res.relative_residual <= 1e-7
        assert res.shard_reports is not None

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            solve_dtm(grid2d_poisson(6), backend="threads")

    def test_sim_options_rejected_for_multiproc(self):
        with pytest.raises(ConfigurationError):
            solve_dtm(grid2d_poisson(6), backend="multiproc",
                      log_messages=True)

    def test_reference_kw_rejected_for_multiproc(self):
        g = grid2d_poisson(6)
        with pytest.raises(ConfigurationError):
            solve_dtm(g, backend="multiproc",
                      reference=np.zeros(g.n))


# ----------------------------------------------------------------------
# serving layer
# ----------------------------------------------------------------------
class TestServer:
    def test_register_is_content_keyed(self, poisson_plan):
        store = PlanStore()
        with DtmServer(shards=2, store=store) as server:
            key1 = server.register(plan=poisson_plan)
            key2 = server.register(plan=poisson_plan)
            assert key1 == key2
            assert key1 == plan_hash(poisson_plan)
            assert len(store) == 1

    def test_solve_and_metrics(self, poisson_plan):
        with DtmServer(shards=2) as server:
            key = server.register(plan=poisson_plan)
            rng = np.random.default_rng(3)
            b = rng.standard_normal(poisson_plan.n)
            res1 = server.solve(key, b, stopping=ResidualRule(tol=1e-7))
            res2 = server.solve(key, stopping=ResidualRule(tol=1e-7))
            assert res1.converged and res2.converged
            snap = server.metrics_snapshot()
            assert snap.total("repro_server_solves_total") == 2
            # second solve reused pool
            assert snap.total("repro_server_warm_hits_total") == 1
            assert snap.value("repro_server_solve_seconds",
                              plan=key)["count"] == 2

    def test_serve_loop(self, poisson_plan):
        with DtmServer(shards=2) as server:
            key = server.register(plan=poisson_plan)
            rng = np.random.default_rng(5)
            reqs = [ServeRequest(plan_id=key,
                                 b=rng.standard_normal(poisson_plan.n),
                                 tol=1e-7, tag=i)
                    for i in range(3)]
            responses = list(server.serve(iter(reqs)))
        assert [r.tag for r in responses] == [0, 1, 2]
        assert [r.seq for r in responses] == [1, 2, 3]
        for req, resp in zip(reqs, responses):
            assert resp.result.converged
            assert relative_residual(poisson_plan.a_mat,
                                     resp.result.x, req.b) <= 1e-7

    def test_unknown_plan_id(self):
        with DtmServer(shards=2) as server:
            with pytest.raises(KeyError):
                server.solve("deadbeef", np.zeros(3))

    def test_closed_server_rejects(self, poisson_plan):
        server = DtmServer(shards=2)
        key = server.register(plan=poisson_plan)
        server.close()
        with pytest.raises(ConfigurationError):
            server.solve(key)
        with pytest.raises(ConfigurationError):
            server.register(plan=poisson_plan)
