#!/usr/bin/env python
"""Algorithm-Architecture Delay Mapping on an irregular network.

DTM's headline feature: the algorithm runs *on* the network's delays
instead of being throttled by its slowest link.  This example builds an
irregular peer-to-peer topology (paper Fig 1B style), partitions a
resistor-network workload with the multilevel partitioner, and shows
that convergence proceeds even when one link is 40× slower than the
rest — no barrier ever waits for it.

Run:  python examples/heterogeneous_delays.py
"""

from repro.core.impedance import GeometricMeanImpedance
from repro.graph import DominancePreservingSplit, multilevel_partition, \
    split_graph
from repro.linalg import conjugate_gradient
from repro.plan import build_plan
from repro.sim import DtmSimulator, custom_topology
from repro.workloads import resistor_grid

print("Workload: 24x24 resistor sheet with current injections")
graph = resistor_grid(24, 24, seed=3)
partition = multilevel_partition(graph, 4, seed=3)
split = split_graph(graph, partition, strategy=DominancePreservingSplit())
print(f"multilevel partition: interior sizes {partition.part_sizes()}, "
      f"{len(split.twin_links)} DTLPs")

# Irregular 4-node network; link 2->3 is pathologically slow (400 ms).
delays = {(0, 1): 12.0, (1, 0): 9.0,
          (1, 2): 25.0, (2, 1): 31.0,
          (2, 3): 400.0, (3, 2): 17.0,
          (0, 3): 22.0, (3, 0): 14.0,
          (0, 2): 28.0, (2, 0): 35.0,
          (1, 3): 19.0, (3, 1): 23.0}
machine = custom_topology(delays, name="irregular-p2p")
print(f"slowest link: 400 ms, fastest: 9 ms "
      f"(ratio {400 / 9:.0f}x, asymmetry {machine.asymmetry():.2f})")

a, b = graph.to_system()
reference = conjugate_gradient(a, b, tol=1e-12).x

plan = build_plan(split=split, topology=machine,
                  impedance=GeometricMeanImpedance(2.0))
sim = DtmSimulator(plan, min_solve_interval=2.0, log_messages=True)
result = sim.run(t_max=6000.0, tol=1e-7, reference=reference)

print(f"\nconverged: {result.converged} "
      f"(rms {result.final_error:.3e} at t = {result.t_end:.0f} ms)")
print(f"local solves: {result.n_solves}, messages: {result.n_messages}")

print("\nper-link traffic (DTM keeps every link busy, no barrier):")
for (src, dst), count in sorted(result.message_log.pairwise_traffic().items()):
    print(f"  P{src} -> P{dst}: {count:5d} messages "
          f"(delay {delays[(src, dst)]:.0f} ms)")

lockstep = result.solve_log.lockstep_fraction()
print(f"\nlockstep fraction (shared solve instants): {lockstep:.3f} "
      "-> fully asynchronous")
