#!/usr/bin/env python
"""Poisson on a heterogeneous 16-processor cluster (paper §7 setting).

A 33×33 random-conductance grid (n = 1089, one of the paper's test
sizes) is torn into 4×4 blocks by level-1/level-2 mixed EVS and solved
on the paper's Fig 11 machine: a 4×4 mesh whose per-direction delays
range from 10 ms to 99 ms with no synchronisation anywhere.

Run:  python examples/poisson_cluster.py
"""

from repro.core.impedance import GeometricMeanImpedance
from repro.graph import DominancePreservingSplit, grid_block_partition, \
    split_graph
from repro.linalg import conjugate_gradient
from repro.plan import build_plan
from repro.sim import DtmSimulator, paper_fig11_topology
from repro.workloads import grid2d_random

SIDE = 33  # 33*33 = 1089 unknowns

print(f"Building a random sparse SPD grid system, n = {SIDE * SIDE} ...")
graph = grid2d_random(SIDE, seed=7)
partition = grid_block_partition(SIDE, SIDE, 4, 4)
split = split_graph(graph, partition, strategy=DominancePreservingSplit())
print(f"EVS: {len(split.split_vertices)} torn vertices, "
      f"{len(split.twin_links)} DTLPs "
      f"(levels: {sorted(set(split.levels().values()))})")

report = split.definiteness()
print(f"Theorem 6.1 hypotheses: "
      f"{'satisfied' if report.satisfies_theorem else 'VIOLATED'} "
      f"({report.n_spd}/{split.n_parts} subgraphs SPD)")

machine = paper_fig11_topology()
stats = machine.delay_stats()
print(f"Machine: {machine.name}, delays {stats['min']:.0f}..."
      f"{stats['max']:.0f} ms (max/min = {stats['ratio']:.1f}x)")

a, b = graph.to_system()
reference = conjugate_gradient(a, b, tol=1e-12).x

plan = build_plan(split=split, topology=machine,
                  impedance=GeometricMeanImpedance(2.0))
sim = DtmSimulator(plan, min_solve_interval=5.0)
result = sim.run(t_max=8000.0, tol=1e-6, reference=reference)

print(f"\nafter {result.t_end:.0f} simulated ms:")
print(f"  rms error      : {result.final_error:.3e}")
print(f"  local solves   : {result.n_solves}")
print(f"  waves exchanged: {result.n_messages}")
print(f"  time to 1e-6   : {result.time_to_tol} ms")
t_half = result.errors.first_time_below(1e-3)
print(f"  time to 1e-3   : {t_half} ms")

from repro.analysis import ascii_curve

print()
print(ascii_curve(result.errors, title="RMS error vs simulated time (ms)"))
