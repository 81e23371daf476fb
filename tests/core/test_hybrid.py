"""Tests for the §8 sync/async hybrid solvers."""

import numpy as np
import pytest

from repro.core.hybrid import (
    ClusteredDtmSimulator,
    PeriodicResyncDtmSimulator,
)
from repro.errors import ConfigurationError
from repro.graph.evs import DominancePreservingSplit, split_graph
from repro.graph.partitioners import grid_block_partition
from repro.linalg.iterative import direct_reference_solution
from repro.plan import build_plan
from repro.sim.network import custom_topology, mesh_topology
from repro.workloads.paper import (
    example_5_1_delays,
    example_5_1_impedances,
    paper_split,
    paper_system_3_2,
)
from repro.workloads.poisson import grid2d_random


def plan_on(split, topo, placement=None, impedance=1.0):
    return build_plan(split=split, topology=topo, placement=placement,
                      impedance=impedance)


@pytest.fixture(scope="module")
def grid_setup():
    g = grid2d_random(9, seed=2)
    p = grid_block_partition(9, 9, 2, 2)
    split = split_graph(g, p, strategy=DominancePreservingSplit())
    a, b = g.to_system()
    return split, direct_reference_solution(a, b)


# ----------------------------------------------------------------------
# clustered (global-async-local-sync)
# ----------------------------------------------------------------------
def test_clustered_converges(grid_setup):
    split, ref = grid_setup
    topo = custom_topology({(0, 1): 20.0, (1, 0): 30.0})
    sim = ClusteredDtmSimulator(plan_on(split, topo, [0, 0, 1, 1]),
                                local_sweeps=3)
    res = sim.run(t_max=5000.0, tol=1e-7, reference=ref)
    assert res.converged
    assert np.allclose(res.x, ref, atol=1e-5)
    assert res.stats["n_clusters"] == 2


def test_clusters_run_on_the_processors_the_plan_names(grid_setup):
    """Placing on processors 1 and 3 of four is the same run as on 0
    and 1 of two when the links between them carry the same delays."""
    split, ref = grid_setup
    sparse = custom_topology({(1, 3): 20.0, (3, 1): 30.0}, n_procs=4)
    dense = custom_topology({(0, 1): 20.0, (1, 0): 30.0})
    runs = [ClusteredDtmSimulator(plan_on(split, topo, placement),
                                  local_sweeps=3)
            .run(t_max=5000.0, tol=1e-7, reference=ref)
            for topo, placement in ((sparse, [1, 1, 3, 3]),
                                    (dense, [0, 0, 1, 1]))]
    assert runs[0].converged
    assert np.array_equal(runs[0].x, runs[1].x)
    assert (runs[0].t_end, runs[0].n_messages) == \
        (runs[1].t_end, runs[1].n_messages)


def test_clustered_single_cluster_is_pure_vtm(grid_setup):
    """One cluster holding everything = repeated local sweeps only."""
    split, ref = grid_setup
    topo = custom_topology({(0, 1): 1.0, (1, 0): 1.0})
    sim = ClusteredDtmSimulator(plan_on(split, topo, [0, 0, 0, 0]),
                                local_sweeps=50)
    # single activation performs 50 sweeps; initial start is enough
    sim.run(t_max=10.0, reference=ref)
    err = float(np.sqrt(np.mean((sim.current_solution() - ref) ** 2)))
    assert err < 1e-2  # 50 synchronous sweeps contract substantially


def test_cluster_kernel_external_slots(grid_setup):
    split, _ = grid_setup
    topo = custom_topology({(0, 1): 5.0, (1, 0): 5.0})
    sim = ClusteredDtmSimulator(plan_on(split, topo, [0, 0, 1, 1]))
    assert sim.clusters == [[0, 1], [2, 3]]
    ck = sim.cluster_kernels[0]
    # every external slot is a member's inbox fed from the other cluster
    ext = ck._ext_slots
    assert ext.size == ck.local.n_slots > 0
    assert set(sim.fleet.slot_part[ext].tolist()) <= {0, 1}
    assert all(sim.cluster_of[q] == 1 for q in
               sim.fleet.slot_part[sim.fleet.route_dest_slot_global[ext]])
    # waves produced leave the cluster only
    idx, values = ck.solve()
    assert idx.size and idx.size == values.size
    dest_parts = sim.fleet.route_dest_part[idx]
    assert all(sim.cluster_of[q] == 1 for q in dest_parts)


def test_clustered_validation(grid_setup):
    split, _ = grid_setup
    topo = custom_topology({(0, 1): 5.0, (1, 0): 5.0})
    with pytest.raises(ConfigurationError):
        plan_on(split, topo, [0, 0, 1])  # subdomain 3 unplaced
    with pytest.raises(ConfigurationError):
        plan_on(split, topo, [0, 1, 2, 2])  # processor 2 > procs
    plan = plan_on(split, topo, [0, 0, 1, 1])
    with pytest.raises(Exception):
        ClusteredDtmSimulator(plan, local_sweeps=0)
    with pytest.raises(ConfigurationError):
        ClusteredDtmSimulator(build_plan(split=split, mode="vtm"))
    sim = ClusteredDtmSimulator(plan)
    with pytest.raises(ConfigurationError):
        sim.run(t_max=0.0)


# ----------------------------------------------------------------------
# periodic resync
# ----------------------------------------------------------------------
def test_periodic_resync_converges():
    split = paper_split()
    topo = custom_topology(example_5_1_delays())
    sim = PeriodicResyncDtmSimulator(
        plan_on(split, topo, impedance=example_5_1_impedances()),
        resync_period=25.0)
    res = sim.run(t_max=400.0, tol=1e-8)
    exact = paper_system_3_2().exact_solution()
    assert res.converged
    assert np.allclose(res.x, exact, atol=1e-6)
    assert sim.n_resyncs >= 2


def test_periodic_resync_validation():
    split = paper_split()
    topo = custom_topology(example_5_1_delays())
    with pytest.raises(ConfigurationError):
        PeriodicResyncDtmSimulator(plan_on(split, topo), resync_period=0.0)


def test_periodic_resync_default_latency_is_max_delay():
    split = paper_split()
    topo = custom_topology(example_5_1_delays())
    sim = PeriodicResyncDtmSimulator(plan_on(split, topo),
                                     resync_period=10.0)
    assert sim.resync_latency == 6.7


# ----------------------------------------------------------------------
# RHS swap (plan/session amortization entry points)
# ----------------------------------------------------------------------
def test_clustered_swap_rhs_solves_new_system(grid_setup):
    split, ref = grid_setup
    topo = custom_topology({(0, 1): 20.0, (1, 0): 30.0})
    sim = ClusteredDtmSimulator(plan_on(split, topo, [0, 0, 1, 1]),
                                local_sweeps=3)
    sim.run(t_max=5000.0, tol=1e-7, reference=ref)
    b2 = np.linspace(0.2, -0.8, split.graph.n)
    a_mat, _ = split.graph.to_system()
    ref2 = direct_reference_solution(a_mat, b2)
    sim.swap_rhs(b2)
    res2 = sim.run(t_max=5000.0, tol=1e-7, reference=ref2)
    assert res2.converged
    assert np.allclose(res2.x, ref2, atol=1e-5)


def test_resync_swap_rhs_solves_new_system(grid_setup):
    split, ref = grid_setup
    topo = mesh_topology(2, 2, delay_low=10, delay_high=30, seed=0)
    sim = PeriodicResyncDtmSimulator(plan_on(split, topo),
                                     resync_period=200.0)
    sim.run(t_max=4000.0, tol=1e-6, reference=ref)
    b2 = np.cos(np.arange(split.graph.n, dtype=np.float64))
    a_mat, _ = split.graph.to_system()
    ref2 = direct_reference_solution(a_mat, b2)
    sim.swap_rhs(b2)
    res2 = sim.run(t_max=4000.0, tol=1e-6, reference=ref2)
    assert res2.converged
    assert np.allclose(res2.x, ref2, atol=1e-4)
