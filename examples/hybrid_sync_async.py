#!/usr/bin/env python
"""The paper's §8 future work: sync/async hybrid schedules.

Compares three execution disciplines on one n=289 workload:

1. plain asynchronous DTM on 16 heterogeneous processors;
2. global-async-local-sync: 4 multicore nodes, each running its 4
   subdomains synchronously (zero intra-node delay), nodes async — a
   plan whose placement puts four subdomains on each node;
3. async-sync-async: plain DTM plus a global re-synchronisation every
   500 ms (cost: the slowest link's delay).

Run:  python examples/hybrid_sync_async.py
"""

from repro.analysis import format_table
from repro.core.hybrid import ClusteredDtmSimulator, \
    PeriodicResyncDtmSimulator
from repro.core.impedance import GeometricMeanImpedance
from repro.experiments.common import paper_split_for, run_paper_dtm
from repro.linalg import direct_reference_solution
from repro.plan import build_plan
from repro.sim import mesh_topology, paper_fig11_topology

split = paper_split_for(289, 16, seed=11)
a, b = split.graph.to_system()
reference = direct_reference_solution(a, b)
impedance = GeometricMeanImpedance(2.0)
T_MAX, TOL = 8000.0, 1e-6

machine16 = paper_fig11_topology(seed=11)
plain = run_paper_dtm(split, machine16, t_max=T_MAX, tol=TOL,
                      impedance=impedance, reference=reference)

machine4 = mesh_topology(2, 2, delay_low=10, delay_high=99, seed=11,
                         integer_delays=True, name="4-node")
# subdomain q (4x4 blocks, row-major) -> the node owning its 2x2 corner
nodes = [0, 0, 1, 1, 0, 0, 1, 1, 2, 2, 3, 3, 2, 2, 3, 3]
clustered = ClusteredDtmSimulator(
    build_plan(split=split, topology=machine4, impedance=impedance,
               placement=nodes),
    local_sweeps=3, min_solve_interval=5.0,
).run(T_MAX, tol=TOL, reference=reference)

resync = PeriodicResyncDtmSimulator(
    build_plan(split=split, topology=machine16, impedance=impedance),
    resync_period=500.0, min_solve_interval=5.0,
).run(T_MAX, tol=TOL, reference=reference)


def row(name, res):
    t = res.time_to_tol if res.time_to_tol is not None else float("nan")
    return (name, f"{t:.0f}" if t == t else "-", f"{res.final_error:.2e}",
            res.n_messages)


print(format_table(
    ["variant", "time to 1e-6 (ms)", "final rms", "messages"],
    [row("plain DTM (16 procs)", plain),
     row("global-async-local-sync (4 nodes x 4 subdomains)", clustered),
     row("periodic resync every 500 ms", resync)],
    title="§8 hybrids vs plain DTM, n=289 on heterogeneous meshes"))

print("\nAll three converge (Theorem 6.1); the hybrids trade message "
      "volume\nagainst wall-clock, which is exactly the trade-off the "
      "paper anticipates.")
