"""End-to-end integration and cross-solver consistency tests.

These exercise the whole pipeline — electric graph → partition → EVS →
DTLP network → solver — on randomly generated systems, and assert that
every execution path (VTM, simulated DTM, hybrids, baselines, direct
methods) lands on the same solution.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dtl import delay_equation_residual
from repro.core.impedance import GeometricMeanImpedance
from repro.core.vtm import VtmSolver
from repro.graph.evs import DominancePreservingSplit, split_graph
from repro.graph.partitioners import (
    greedy_grow_partition,
    grid_block_partition,
)
from repro.linalg.iterative import direct_reference_solution
from repro.plan import build_plan
from repro.sim.executor import DtmSimulator
from repro.sim.network import complete_topology, mesh_topology
from repro.solvers.block_gs import solve_block_gauss_seidel
from repro.solvers.schur import solve_schur
from repro.workloads.poisson import grid2d_random
from repro.workloads.random_spd import random_connected_spd_graph


def vtm_on(split, impedance) -> VtmSolver:
    return VtmSolver(build_plan(split=split, impedance=impedance,
                                mode="vtm"))


def dtm_on(split, topo, *, impedance, **kwargs) -> DtmSimulator:
    return DtmSimulator(build_plan(split=split, topology=topo,
                                   impedance=impedance), **kwargs)


# ----------------------------------------------------------------------
# cross-solver agreement
# ----------------------------------------------------------------------
def test_all_solvers_agree_on_grid():
    g = grid2d_random(11, seed=21)
    p = grid_block_partition(11, 11, 2, 2)
    a, b = g.to_system()
    ref = direct_reference_solution(a, b)
    split = split_graph(g, p, strategy=DominancePreservingSplit())

    vtm = vtm_on(split, GeometricMeanImpedance(2.0)).run(
        tol=1e-9, max_iterations=4000, reference=ref)
    topo = mesh_topology(2, 2, delay_low=5, delay_high=50, seed=2)
    dtm = dtm_on(split, topo,
                 impedance=GeometricMeanImpedance(2.0)).run(
        t_max=15_000.0, tol=1e-8, reference=ref)
    schur = solve_schur(g, p)
    bgs = solve_block_gauss_seidel(g, p, tol=1e-9, reference=ref)

    for name, x in (("vtm", vtm.x), ("dtm", dtm.x), ("schur", schur.x),
                    ("bgs", bgs.x)):
        assert np.allclose(x, ref, atol=1e-5), name


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_property_random_system_full_pipeline(seed):
    """Any connected random SPD system solves through the pipeline."""
    g = random_connected_spd_graph(30, seed=seed)
    p = greedy_grow_partition(g, 3, seed=seed)
    split = split_graph(g, p, strategy=DominancePreservingSplit())
    split.assert_exact()
    assert split.definiteness().satisfies_theorem
    a, b = g.to_system()
    ref = direct_reference_solution(a, b)
    res = vtm_on(split, GeometricMeanImpedance(2.0)).run(
        tol=1e-8, max_iterations=6000, reference=ref)
    assert res.converged
    assert np.allclose(res.x, ref, atol=1e-5)


@settings(max_examples=5, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_property_simulated_dtm_on_random_system(seed):
    g = random_connected_spd_graph(24, seed=seed)
    p = greedy_grow_partition(g, 3, seed=seed)
    split = split_graph(g, p, strategy=DominancePreservingSplit())
    a, b = g.to_system()
    ref = direct_reference_solution(a, b)
    topo = complete_topology(split.n_parts, delay_low=5.0, delay_high=40.0,
                             seed=seed)
    res = dtm_on(split, topo,
                 impedance=GeometricMeanImpedance(2.0)).run(
        t_max=20_000.0, tol=1e-7, reference=ref)
    assert res.converged, f"seed={seed}"
    assert np.allclose(res.x, ref, atol=1e-4)


# ----------------------------------------------------------------------
# the Directed Transmission Delay Equation on the wire
# ----------------------------------------------------------------------
def test_delay_equation_holds_at_steady_state():
    """Verify (2.1) on a converged run.

    At steady state the delayed samples equal the current ones, so the
    Directed Transmission Delay Equation reduces to

        u_p + Z ω_p = u_q − Z ω_q     (both directions of every DTLP)

    which we check from the kernels' final potentials/currents.  The
    transport side of (2.1) — waves arriving exactly one link delay
    after they were sent — is checked from the message log.
    """
    from repro.workloads.paper import (
        example_5_1_delays,
        example_5_1_impedances,
        paper_split,
    )
    from repro.sim.network import custom_topology

    split = paper_split()
    topo = custom_topology(example_5_1_delays())
    sim = dtm_on(split, topo, impedance=example_5_1_impedances(),
                 log_messages=True)
    sim.run(t_max=400.0, tol=1e-11)
    checked = 0
    for d in sim.network.dtlps:
        z = d.impedance
        values = {}
        for ep in (d.a, d.b):
            kernel = sim.kernels[ep.part]
            u = kernel.u_ports[ep.port]
            omega = kernel.local.slot_currents(kernel.waves,
                                               kernel.u_ports)[ep.slot]
            values[ep.part] = (float(u), float(omega))
        (u1, w1), (u2, w2) = values[d.a.part], values[d.b.part]
        res12 = delay_equation_residual([u1], [w1], [u2], [w2], z)
        res21 = delay_equation_residual([u2], [w2], [u1], [w1], z)
        assert abs(res12[0]) < 1e-8
        assert abs(res21[0]) < 1e-8
        checked += 1
    assert checked == 2  # both DTLPs of Example 5.1

    # transport: every logged message arrived exactly one link delay
    # after it was sent (algorithm-architecture delay mapping)
    delays = example_5_1_delays()
    for (src, dst), observed in sim.message_log.delays_observed().items():
        assert all(abs(x - delays[(src, dst)]) < 1e-12 for x in observed)


# ----------------------------------------------------------------------
# twin consistency at convergence (KCL, paper §4)
# ----------------------------------------------------------------------
def test_twin_consistency_at_convergence():
    g = grid2d_random(9, seed=33)
    p = grid_block_partition(9, 9, 2, 2)
    split = split_graph(g, p, strategy=DominancePreservingSplit())
    a, b = g.to_system()
    ref = direct_reference_solution(a, b)
    solver = vtm_on(split, GeometricMeanImpedance(2.0))
    solver.run(tol=1e-11, max_iterations=5000, reference=ref)
    # for every split vertex: all copy potentials equal, currents sum 0
    u = {q: k.port_potentials() for q, k in enumerate(solver.kernels)}
    omega = {q: k.port_currents() for q, k in enumerate(solver.kernels)}
    for v, parts in split.copies.items():
        if len(parts) < 2:
            continue
        pots = []
        currents = []
        for q in parts:
            row = split.subdomains[q].local_index_of(v)
            pots.append(u[q][row])
            currents.append(omega[q][row])
        assert np.ptp(pots) < 1e-8, f"vertex {v} potentials disagree"
        assert abs(sum(currents)) < 1e-8, f"vertex {v} violates KCL"
