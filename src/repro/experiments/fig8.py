"""EXP-F8 — paper Figure 8: DTM trajectory on the worked example.

Reproduces Example 5.1 end to end: system (3.2) split per Example 4.1,
Z₂ = 0.2 / Z₃ = 0.1, directed delays 6.7 μs and 2.9 μs, zero initial
conditions (5.6) — and traces the four port potentials
x₂ₐ(t), x₂ᵦ(t), x₃ₐ(t), x₃ᵦ(t) that Figure 8 plots.

Expected shape: every trace converges to the direct solution of (3.2),
twin traces coincide in the limit, and the error decays geometrically.
"""

from __future__ import annotations

import numpy as np

from ..analysis.reporting import ExperimentRecord
from ..plan import build_plan
from ..sim.executor import DtmSimulator
from ..sim.network import custom_topology
from ..workloads.paper import (
    example_5_1_delays,
    example_5_1_impedances,
    paper_split,
    paper_system_3_2,
)
from .common import geometric_decay_ok


def run_fig8(t_max: float = 100.0, *, n_rows: int = 12) -> ExperimentRecord:
    """Run Example 5.1 and tabulate the Fig 8 traces."""
    split = paper_split()
    system = paper_system_3_2()
    exact = system.exact_solution()
    topo = custom_topology(example_5_1_delays(), name="example5.1")
    plan = build_plan(split=split, topology=topo,
                      impedance=example_5_1_impedances())
    sim = DtmSimulator(plan, min_solve_interval=0.0,
                       probe_ports=[(0, 1), (1, 1), (0, 2), (1, 2)])
    res = sim.run(t_max=t_max)

    labels = {(0, 1): "x2a", (1, 1): "x2b", (0, 2): "x3a", (1, 2): "x3b"}
    traces = {name: sim.port_probe.trace(*key)
              for key, name in labels.items()}

    record = ExperimentRecord(
        experiment_id="EXP-F8",
        description="Fig 8: DTM potentials vs time on Example 5.1",
        parameters={"t_max_us": t_max, "Z2": 0.2, "Z3": 0.1,
                    "delay_A_to_B_us": 6.7, "delay_B_to_A_us": 2.9},
    )
    grid = np.linspace(0.0, res.t_end, n_rows)
    rows = []
    for t in grid:
        row = [t]
        for name in ("x2a", "x2b", "x3a", "x3b"):
            ts = traces[name]
            row.append(float(ts.at(min(max(t, ts.times[0]), ts.times[-1]))))
        rows.append(row)
    record.add_table(["t (us)", "x2a", "x2b", "x3a", "x3b"], rows,
                     title="Fig 8 series (piecewise-constant samples)")
    record.add_curve(res.errors, title="RMS error vs t (us)")

    final = {name: float(ts.final) for name, ts in traces.items()}
    record.measurements.update({
        "exact_x2": float(exact[1]), "exact_x3": float(exact[2]),
        **{f"final_{k}": v for k, v in final.items()},
        "final_rms_error": res.final_error,
        "n_solves": res.n_solves, "n_messages": res.n_messages,
    })
    record.shape_checks.update({
        "x2 twins converge to exact": (
            abs(final["x2a"] - exact[1]) < 1e-3
            and abs(final["x2b"] - exact[1]) < 1e-3),
        "x3 twins converge to exact": (
            abs(final["x3a"] - exact[2]) < 1e-3
            and abs(final["x3b"] - exact[2]) < 1e-3),
        "twin traces coincide in the limit": (
            abs(final["x2a"] - final["x2b"]) < 2e-3
            and abs(final["x3a"] - final["x3b"]) < 2e-3),
        "geometric error decay": geometric_decay_ok(res.errors),
        "fully asynchronous (no common solve grid)": (
            res.n_solves > 2 * split.n_parts),
    })
    return record
