"""Property tests: FleetKernel ≡ per-DtmKernel execution, bitwise.

The fleet kernel's whole contract is that the struct-of-arrays sweep is
a pure reformulation: grouping subdomains by block shape and batching
the mat-vecs must not change a single bit of the wave trajectory
relative to driving one :class:`DtmKernel` per subdomain (the test-only
oracle in ``tests/per_kernel.py``).  These tests assert exactly that,
on a seeded multilevel split (separator crossings give ports carrying
several DTLs), for

* the synchronous VTM schedule (fleet sweeps vs hand-rolled per-kernel
  sweeps), with and without ``send_threshold`` suppression;
* the asynchronous simulated schedule (``DtmSimulator`` vs the
  per-message ``PerKernelSimulator``) on heterogeneous, uniform
  (arrival-time ties) and jittered machines.
"""

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st
from per_kernel import PerKernelSimulator, build_kernels, per_kernel_sweep

from repro.core.dtl import build_dtlp_network
from repro.core.fleet import FleetKernel, build_fleet
from repro.core.local import build_all_local_systems
from repro.core.vtm import VtmSolver
from repro.errors import ValidationError
from repro.graph.evs import DominancePreservingSplit, split_graph
from repro.graph.partitioners import grid_block_partition
from repro.plan import build_plan
from repro.sim.executor import DtmSimulator
from repro.sim.network import (
    JitteredDelay,
    Topology,
    complete_topology,
    uniform_topology,
)
from repro.sim.processor import ComputeModel
from repro.workloads.poisson import grid2d_random


@pytest.fixture(scope="module")
def multilevel_split():
    """Seeded 12×12 random-conductance grid in 3×3 blocks.

    The separator crossings are shared by four subdomains, so the split
    contains level-2 tearing (multi-DTL ports) — the interesting case
    for slot bookkeeping.
    """
    g = grid2d_random(12, seed=3)
    p = grid_block_partition(12, 12, 3, 3)
    split = split_graph(g, p, strategy=DominancePreservingSplit())
    assert any(len(parts) > 2 for parts in split.copies.values()), \
        "fixture must exercise multilevel tearing"
    return split


def _build_pair(split, send_threshold=0.0):
    """One network, locals shared; fleet on one side, kernels on the other."""
    net = build_dtlp_network(split, 1.0, 1.0)
    locals_ = build_all_local_systems(split, net)
    fleet = build_fleet(split, net, locals_, send_threshold=send_threshold)
    kernels = build_kernels(split, net, locals_,
                            send_threshold=send_threshold)
    return fleet, kernels


def _kernel_waves(kernels):
    return np.concatenate([k.waves for k in kernels])


@pytest.mark.parametrize("send_threshold", [0.0, 1e-3])
def test_sync_trajectories_bitwise_identical(multilevel_split,
                                             send_threshold):
    fleet, kernels = _build_pair(multilevel_split, send_threshold)
    for sweep in range(40):
        fleet.solve_all()
        dest, values = fleet.emit_all()
        fleet.receive_batch(dest, values)
        per_kernel_sweep(kernels)
        assert np.array_equal(fleet.waves, _kernel_waves(kernels)), \
            f"wave trajectories diverged at sweep {sweep}"
        assert np.array_equal(
            fleet.u, np.concatenate([k.u_ports for k in kernels])), \
            f"port potentials diverged at sweep {sweep}"
    # counters agree too (threshold suppression must match exactly)
    assert fleet.n_solves.tolist() == [k.n_solves for k in kernels]
    assert fleet.n_received.tolist() == [k.n_received for k in kernels]
    ls_fleet = fleet.last_sent
    ls_ref = np.concatenate([k.last_sent for k in kernels])
    assert np.array_equal(np.isnan(ls_fleet), np.isnan(ls_ref))
    assert np.array_equal(ls_fleet[~np.isnan(ls_fleet)],
                          ls_ref[~np.isnan(ls_ref)])


def test_vtm_solver_matches_per_kernel_reference(multilevel_split):
    solver = VtmSolver(build_plan(split=multilevel_split, mode="vtm"))
    _, kernels = _build_pair(multilevel_split)
    for _ in range(25):
        solver.sweep()
        per_kernel_sweep(kernels)
    assert np.array_equal(solver.get_waves(), _kernel_waves(kernels))
    states_fleet = [k.full_state() for k in solver.kernels]
    states_ref = [k.full_state() for k in kernels]
    for a, b in zip(states_fleet, states_ref):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("send_threshold", [0.0, 1e-6])
def test_simulated_trajectories_bitwise_identical(multilevel_split,
                                                  send_threshold):
    split = multilevel_split
    topo = complete_topology(split.n_parts, delay_low=10.0,
                             delay_high=100.0, seed=11)
    plan = build_plan(split=split, topology=topo)
    runs = []
    for cls in (DtmSimulator, PerKernelSimulator):
        sim = cls(plan, send_threshold=send_threshold)
        runs.append((sim, sim.run(t_max=900.0)))
    (sim_f, res_f), (sim_k, res_k) = runs
    assert np.array_equal(res_f.x, res_k.x)
    assert np.array_equal(res_f.errors.values, res_k.errors.values)
    assert np.array_equal(res_f.errors.times, res_k.errors.times)
    assert res_f.t_end == res_k.t_end
    assert res_f.n_solves == res_k.n_solves
    assert res_f.n_messages == res_k.n_messages
    assert res_f.n_events == res_k.n_events
    for vf, kk in zip(sim_f.kernels, sim_k.kernels):
        assert np.array_equal(vf.waves, kk.waves)
        assert np.array_equal(vf.u_ports, kk.u_ports)
        assert vf.n_solves == kk.n_solves
        assert vf.n_received == kk.n_received


def _assert_same_run(res_f, res_k):
    assert np.array_equal(res_f.x, res_k.x)
    assert np.array_equal(res_f.errors.values, res_k.errors.values)
    assert np.array_equal(res_f.errors.times, res_k.errors.times)
    assert (res_f.t_end, res_f.n_solves, res_f.n_messages,
            res_f.n_events) == (res_k.t_end, res_k.n_solves,
                                res_k.n_messages, res_k.n_events)


def _oracle_topology(kind, n_procs, seed):
    """``float``: heterogeneous constant delays (arrivals almost never
    tie); ``uniform``: one delay everywhere (arrivals tie across
    destinations and solves); ``jitter``: per-message draws."""
    if kind == "uniform":
        return uniform_topology(n_procs, delay=8.0)
    topo = complete_topology(n_procs, delay_low=5.0, delay_high=60.0,
                             seed=seed)
    if kind == "jitter":
        topo = Topology(n_procs, {k: JitteredDelay(m.nominal(), 0.3)
                                  for k, m in topo.links.items()})
    return topo


@given(grid=st.integers(6, 10), px=st.integers(2, 3), py=st.integers(1, 3),
       seed=st.integers(0, 10_000),
       send_threshold=st.sampled_from([0.0, 1e-6]),
       base=st.sampled_from([0.0, 0.5, 4.0]),
       delays=st.sampled_from(["float", "uniform", "jitter"]))
@example(grid=8, px=2, py=2, seed=1, send_threshold=0.0, base=0.0,
         delays="uniform")
@example(grid=8, px=3, py=2, seed=2, send_threshold=1e-6, base=0.5,
         delays="jitter")
@settings(max_examples=12, deadline=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
def test_simulator_matches_per_message_oracle(grid, px, py, seed,
                                              send_threshold, base, delays):
    """Batched delivery ≡ one callback per wave, cold and warm.

    Generated grids, partitions, delays, thresholds and compute models;
    the message logs (every send time, arrival time, link and value)
    must agree, and so must a second run warm-started from the first
    run's final waves against a swapped right-hand side.  The jitter
    RNG is re-seeded before every run, so the simulator's one draw per
    solve is checked against the oracle's one draw per wave.  No shrink
    phase: every example is a full pair of simulations.
    """
    g = grid2d_random(grid, seed=seed)
    split = split_graph(g, grid_block_partition(grid, grid, px, py),
                        strategy=DominancePreservingSplit())
    plan = build_plan(split=split,
                      topology=_oracle_topology(delays, split.n_parts, seed))
    sims = [cls(plan, send_threshold=send_threshold,
                compute=ComputeModel(base=base, per_slot=0.1),
                log_messages=True)
            for cls in (DtmSimulator, PerKernelSimulator)]

    def run_both(t_max):
        runs = []
        for sim in sims:
            plan.topology.seed(seed)
            runs.append(sim.run(t_max=t_max))
        _assert_same_run(*runs)

    run_both(400.0)
    logs = [[(m.t_send, m.t_arrive, m.src_proc, m.dst_proc, m.dtlp_index,
              m.value) for m in sim.message_log.records] for sim in sims]
    assert logs[0] == logs[1]
    waves = sims[0].fleet.waves.copy()
    b2 = np.cos(np.arange(g.n, dtype=np.float64) + seed)
    for sim in sims:
        sim.swap_rhs(b2, waves=waves)
    run_both(200.0)


# ----------------------------------------------------------------------
# fleet-specific unit behaviour
# ----------------------------------------------------------------------
def test_receive_batch_latest_occurrence_wins(multilevel_split):
    fleet, _ = _build_pair(multilevel_split)
    slot = int(fleet.n_slots_total // 2)
    fleet.receive_batch(np.array([slot, slot, slot]),
                        np.array([1.0, 2.0, 3.0]))
    assert fleet.waves[slot] == 3.0
    part = int(fleet.slot_part[slot])
    assert fleet.n_received[part] == 3
    assert fleet.dirty[part]


def test_masked_solve_only_touches_active_parts(multilevel_split):
    fleet, _ = _build_pair(multilevel_split)
    fleet.solve_all()
    rng = np.random.default_rng(5)
    fleet.waves[:] = rng.standard_normal(fleet.n_slots_total)
    u_before = fleet.u.copy()
    active = np.zeros(fleet.n_parts, dtype=bool)
    active[0] = active[3] = True
    fleet.solve_all(active)
    for q in range(fleet.n_parts):
        p0, p1 = fleet.port_offsets[q], fleet.port_offsets[q + 1]
        view = fleet.views()[q]
        if active[q]:
            expected = view.local.u0 + view.local.W @ view.waves
            assert np.array_equal(fleet.u[p0:p1], expected)
            assert fleet.n_solves[q] == 2
        else:
            assert np.array_equal(fleet.u[p0:p1], u_before[p0:p1])
            assert fleet.n_solves[q] == 1


def test_emit_slots_of_chosen_parts_matches_per_part_emissions(
        multilevel_split):
    fleet, kernels = _build_pair(multilevel_split)
    fleet.solve_all()
    for k in kernels:
        k.solve()
    active = [1, 4, 7]
    idx, values = fleet.emit_slots(
        np.concatenate([fleet.part_slots(q) for q in active]))
    dest = fleet.route_dest_slot_global[idx]
    # reference: the chosen parts' messages through the per-kernel path
    exp_dest, exp_vals = [], []
    for q in active:
        for m in kernels[q].solve():
            exp_dest.append(fleet.slot_offsets[m.dest_part] + m.dest_slot)
            exp_vals.append(m.value)
    assert dest.tolist() == exp_dest
    assert values.tolist() == exp_vals


def test_view_solve_messages_match_dtmkernel(multilevel_split):
    fleet, kernels = _build_pair(multilevel_split)
    idx, values = fleet.views()[4].solve()
    msgs = kernels[4].solve()
    assert len(idx) == len(msgs)
    for g, v, m in zip(idx, values, msgs):
        assert (int(fleet.route_dest_part[g]),
                int(fleet.route_dest_slot_local[g]),
                int(fleet.route_dtlp[g]), int(fleet.slot_part[g])) == \
            (m.dest_part, m.dest_slot, m.dtlp_index, m.src_part)
        assert v == m.value


def test_routing_permutation_is_an_involution(multilevel_split):
    """emit→deliver lands on the twin, whose emit routes straight back."""
    fleet, _ = _build_pair(multilevel_split)
    perm = fleet.route_dest_slot_global
    assert np.array_equal(np.sort(perm), np.arange(fleet.n_slots_total))
    assert np.array_equal(perm[perm], np.arange(fleet.n_slots_total))


def test_fleet_validates_inputs(multilevel_split):
    net = build_dtlp_network(multilevel_split, 1.0, 1.0)
    locals_ = build_all_local_systems(multilevel_split, net)
    routes = [net.routes_from(s.part)
              for s in multilevel_split.subdomains]
    with pytest.raises(ValidationError):
        FleetKernel(locals_, routes[:-1])
    with pytest.raises(ValidationError):
        FleetKernel(locals_, routes, send_threshold=-1.0)
    # malformed routes must raise, not silently corrupt a neighbour
    bad = [list(r) for r in routes]
    dp, _ds, di, dl = bad[0][0]
    bad[0][0] = (dp, -1, di, dl)
    with pytest.raises(ValidationError):
        FleetKernel(locals_, bad)
    bad[0][0] = (len(locals_), 0, di, dl)
    with pytest.raises(ValidationError):
        FleetKernel(locals_, bad)


# ----------------------------------------------------------------------
# plan/session support: RHS swap, fork, reset
# ----------------------------------------------------------------------
class TestFleetRhsSwapForkReset:
    def test_swap_rhs_matches_fresh_build_bitwise(self, multilevel_split):
        split = multilevel_split
        fleet, _ = _build_pair(split)
        b2 = np.linspace(0.5, -1.5, split.graph.n)
        fleet.swap_rhs(split.spread_sources(b2))

        # a fleet built from scratch over the swapped-source graph
        from repro.graph.electric import ElectricGraph

        g = split.graph
        g2 = ElectricGraph(g.vertex_weights, b2, g.edge_u, g.edge_v,
                           g.edge_weights)
        split2 = split_graph(g2, split.partition,
                             strategy=DominancePreservingSplit())
        fleet2, _ = _build_pair(split2)
        for _ in range(4):
            fleet.solve_all()
            dest, values = fleet.emit_all()
            fleet.receive_batch(dest, values)
            fleet2.solve_all()
            dest2, values2 = fleet2.emit_all()
            fleet2.receive_batch(dest2, values2)
        assert np.array_equal(fleet.waves, fleet2.waves)
        assert np.array_equal(fleet.u, fleet2.u)

    def test_swap_rhs_validates_lengths(self, multilevel_split):
        fleet, _ = _build_pair(multilevel_split)
        with pytest.raises(ValidationError):
            fleet.swap_rhs([np.zeros(1)])
        with pytest.raises(ValidationError):
            fleet.swap_rhs(None)

    def test_fork_is_independent_and_bitwise_equal(self, multilevel_split):
        fleet, _ = _build_pair(multilevel_split)
        fork = fleet.fork()
        # identical trajectories...
        for f in (fleet, fork):
            f.solve_all()
            dest, values = f.emit_all()
            f.receive_batch(dest, values)
        assert np.array_equal(fleet.waves, fork.waves)
        # ...but independent state and locals
        fork.waves[:] = 123.0
        assert not np.array_equal(fleet.waves, fork.waves)
        fork.locals[0].x0[...] = -7.0
        assert not np.array_equal(fleet.locals[0].x0, fork.locals[0].x0)
        # immutable packings are shared, not copied
        assert fork.route_dest_slot_global is fleet.route_dest_slot_global
        assert fork.groups[0].W3 is fleet.groups[0].W3

    def test_reset_state_restores_fresh_construction(self, multilevel_split):
        fleet, _ = _build_pair(multilevel_split)
        fresh, _ = _build_pair(multilevel_split)
        for _ in range(3):
            fleet.solve_all()
            dest, values = fleet.emit_all()
            fleet.receive_batch(dest, values)
        fleet.reset_state()
        assert np.array_equal(fleet.waves, fresh.waves)
        assert np.array_equal(fleet.u, fresh.u)
        assert np.all(np.isnan(fleet.last_sent))
        assert np.all(fleet.n_solves == 0)
        assert np.all(fleet.n_received == 0)
        assert np.all(fleet.dirty)

    def test_reset_state_warm_waves(self, multilevel_split):
        fleet, _ = _build_pair(multilevel_split)
        warm = np.arange(fleet.n_slots_total, dtype=np.float64)
        fleet.reset_state(warm)
        assert np.array_equal(fleet.waves, warm)
        with pytest.raises(ValidationError):
            fleet.reset_state(np.zeros(fleet.n_slots_total + 1))

    def test_local_set_rhs_matches_fresh_factorization(self, multilevel_split):
        split = multilevel_split
        net = build_dtlp_network(split, 1.0, 1.0)
        locals_ = build_all_local_systems(split, net)
        b2 = np.cos(np.arange(split.graph.n, dtype=np.float64))
        rhs_list = split.spread_sources(b2)
        for loc, rhs in zip(locals_, rhs_list):
            loc.set_rhs(rhs)
        from repro.graph.electric import ElectricGraph

        g = split.graph
        g2 = ElectricGraph(g.vertex_weights, b2, g.edge_u, g.edge_v,
                           g.edge_weights)
        split2 = split_graph(g2, split.partition,
                             strategy=DominancePreservingSplit())
        locals2 = build_all_local_systems(split2,
                                          build_dtlp_network(split2, 1.0, 1.0))
        for loc, loc2 in zip(locals_, locals2):
            assert np.array_equal(loc.x0, loc2.x0)
            assert loc.X is not loc2.X  # factors retained independently
