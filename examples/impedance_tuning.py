#!/usr/bin/env python
"""Impedance tuning: the knob behind paper Figure 9.

Theorem 6.1 guarantees convergence for any positive characteristic
impedance, but the *speed* varies by orders of magnitude.  This example
sweeps the impedance scale on the worked example, prints the U-shaped
error curve of Fig 9, and cross-checks it against the wave-operator
spectral radius ρ(S) — the a-priori predictor the analysis package
computes.

Run:  python examples/impedance_tuning.py
"""

import numpy as np

from repro.analysis import format_table, wave_spectral_report
from repro.plan import build_plan
from repro.sim import DtmSimulator, custom_topology
from repro.workloads import (
    IMPEDANCE_V2,
    IMPEDANCE_V3,
    example_5_1_delays,
    paper_split,
)

split = paper_split()
machine = custom_topology(example_5_1_delays())

alphas = np.geomspace(0.05, 50.0, 11)
rows = []
for alpha in alphas:
    impedance = {1: IMPEDANCE_V2 * alpha, 2: IMPEDANCE_V3 * alpha}
    sim = DtmSimulator(build_plan(split=split, topology=machine,
                                  impedance=impedance))
    res = sim.run(t_max=100.0)
    rho = wave_spectral_report(split, impedance).spectral_radius
    rows.append((f"{alpha:.3g}", f"{res.final_error:.3e}", f"{rho:.4f}"))

print(format_table(
    ["alpha (x paper Z)", "rms error @ t=100us", "rho(S)"], rows,
    title="Figure 9 reproduction: impedance sweep on Example 5.1"))

errors = np.array([float(r[1]) for r in rows])
best = int(np.argmin(errors))
print(f"\nbest alpha = {rows[best][0]} "
      f"(error {errors[best]:.3e}); extremes are "
      f"{errors[0] / errors[best]:.0f}x and "
      f"{errors[-1] / errors[best]:.0f}x worse")
print("-> the U-shape of paper Fig 9: careful impedance choice "
      "speeds up DTM.")
