"""The paper's tables, figures and ablations as gated claims.

One test per entry of the ``python -m repro.experiments`` registry:
run the experiment once at the paper's parameters (the experiments are
deterministic, seeded, multi-second simulations — repeated timing
rounds would only repeat identical work), print the paper-style
rows/series, write the record under ``results/``, and hold its shape
checks plus the ``(measurement, relation, bound)`` rows of
:data:`PAPER`:

* table1 — Table 1, structural compliance on the Fig 11 machine: no
  synchronisation, N2N traffic only, arrival-triggered solves.
* fig8 / fig9 — Example 5.1 (Z2=0.2, Z3=0.1, delays 6.7/2.9 μs): the
  port-potential traces converge to the direct solution of system
  (3.2); the error at a fixed horizon is U-shaped in the impedance.
* fig11 / fig13 — the 4×4 and 8×8 heterogeneous meshes, per-direction
  delays 10–99 ms, max/min ≈ 9×.
* fig12 / fig14 — DTM convergence on 16 and 64 fully asynchronous
  processors: geometric decay, larger systems converge more slowly.
* abl-z / abl-split / abl-twin — impedance, weight-split and twin-link
  ablations (every positive impedance converges, Theorem 6.1; how much
  the choice matters).
* abl-bj — DTM against block-Jacobi / Gauss–Seidel / Schur (§1).
* abl-hyb / abl-vtm — the §8 sync/async hybrids, and the DTM-vs-VTM
  convergence-speed gap the conclusion observes.

Run:  PYTHONPATH=src python -m pytest benchmarks/bench_paper.py -q -s
"""

import math
import os
import sys
import time
from operator import ge, gt, le, lt

import pytest

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.experiments.__main__ import EXPERIMENTS  # noqa: E402
from repro.experiments.common import RESULTS_DIR  # noqa: E402

#: experiment -> (kwargs, rows); a registered experiment without an
#: entry fails its test
PAPER = {
    "table1": (dict(n=289, t_max=1500.0),
               [("lockstep_fraction", lt, 0.05)]),
    "fig8": (dict(t_max=100.0),
             # the worked example's headline numbers: a finite direct
             # solution, and the traces converge to it
             [("exact_x2", le, math.inf), ("final_rms_error", lt, 1e-3)]),
    "fig9": (dict(t_end=100.0),
             [("best_alpha", gt, 0.05), ("best_alpha", lt, 50.0)]),
    "fig11": ({}, [("max_over_min", ge, 9.0)]),
    "fig12": (dict(sizes=(289, 1089), t_max=6000.0),
              [("n289_final_error", lt, 1e-3)]),
    "fig13": ({}, [("min_delay_ms", ge, 10.0)]),
    "fig14": (dict(sizes=(1089, 4225), t_max=4000.0),
              [("n1089_n_solves", ge, 64)]),
    "abl-z": (dict(t_max=6000.0), [("best_strategy", gt, "")]),
    "abl-split": ({}, []),
    "abl-twin": ({}, []),
    "abl-vtm": (dict(t_max=6000.0), [("slowdown_factor", gt, 1.0)]),
    "abl-bj": (dict(t_max=6000.0), [("schur_error", lt, 1e-9)]),
    "abl-hyb": (dict(t_max=6000.0), []),
}


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_paper_experiment(name):
    kwargs, rows = PAPER[name]
    t0 = time.perf_counter()
    record = EXPERIMENTS[name](**kwargs)
    elapsed = time.perf_counter() - t0
    text = record.render()
    print(f"\n{text}")
    print(f"[{name}: {elapsed:.1f}s, saved to {record.save(RESULTS_DIR)}]")
    assert record.all_checks_pass, (
        f"{record.experiment_id}: shape checks failed\n{text}")
    for measurement, holds, bound in rows:
        value = record.measurements[measurement]
        assert holds(value, bound), \
            f"{name}: {measurement}={value!r} is not " \
            f"{holds.__name__} {bound!r}"
