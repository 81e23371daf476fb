"""EXP-F9 — paper Figure 9: RMS error at t = 100 μs vs impedance.

The paper sweeps the DTLP characteristic impedances and reports the RMS
error of Example 5.1 at a fixed horizon: a U-shaped curve showing that
a careful impedance choice "speeds up DTM".  We sweep a scale factor α
applied to the paper's (Z₂, Z₃) over a log grid.

Expected shape: U-curve — the best α lies strictly inside the sweep and
both extreme α values are markedly worse.
"""

from __future__ import annotations

import numpy as np

from ..analysis.reporting import ExperimentRecord
from ..analysis.spectral import wave_spectral_report
from ..plan import build_plan
from ..sim.executor import DtmSimulator
from ..sim.network import custom_topology
from ..workloads.paper import (
    IMPEDANCE_V2,
    IMPEDANCE_V3,
    example_5_1_delays,
    paper_split,
)


def run_fig9(*, t_end: float = 100.0,
             alphas=None) -> ExperimentRecord:
    """Sweep the impedance scale and measure the error at *t_end*."""
    if alphas is None:
        alphas = np.geomspace(0.05, 50.0, 13)
    split = paper_split()
    topo = custom_topology(example_5_1_delays(), name="example5.1")

    rows = []
    errors = []
    for alpha in alphas:
        impedance = {1: IMPEDANCE_V2 * alpha, 2: IMPEDANCE_V3 * alpha}
        sim = DtmSimulator(build_plan(split=split, topology=topo,
                                      impedance=impedance),
                           min_solve_interval=0.0)
        res = sim.run(t_max=t_end)
        rho = wave_spectral_report(split, impedance).spectral_radius
        rows.append((float(alpha), res.final_error, rho))
        errors.append(res.final_error)

    errors = np.asarray(errors)
    best = int(np.argmin(errors))
    record = ExperimentRecord(
        experiment_id="EXP-F9",
        description="Fig 9: RMS error of DTM at t = 100 us vs impedance "
                    "scale",
        parameters={"t_end_us": t_end, "n_points": len(rows),
                    "alpha_min": float(alphas[0]),
                    "alpha_max": float(alphas[-1])},
    )
    record.add_table(["alpha (x paper Z)", "rms error @ t_end", "rho(S)"],
                     rows, title="Impedance sweep (paper Z2=0.2, Z3=0.1 at "
                                 "alpha=1)")
    record.measurements.update({
        "best_alpha": float(alphas[best]),
        "best_error": float(errors[best]),
        "error_at_alpha_min": float(errors[0]),
        "error_at_alpha_max": float(errors[-1]),
    })
    record.shape_checks.update({
        "U-shape: optimum strictly inside sweep":
            0 < best < len(alphas) - 1,
        "small impedance much worse than optimum":
            errors[0] > 3.0 * errors[best],
        "large impedance much worse than optimum":
            errors[-1] > 3.0 * errors[best],
        "impedance choice affects speed (paper's claim)":
            float(errors.max() / max(errors.min(), 1e-300)) > 10.0,
    })
    return record
