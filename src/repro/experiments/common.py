"""Shared experiment infrastructure: workloads, splits, result records.

Every figure/table module builds on these helpers so that the bench
files stay declarative: construct → run → record → shape-check.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

from ..core.impedance import GeometricMeanImpedance
from ..graph.evs import DominancePreservingSplit, SplitResult, split_graph
from ..graph.partitioners import grid_block_partition
from ..plan import get_plan
from ..sim.executor import DtmRunResult, DtmSimulator
from ..sim.network import Topology
from ..workloads.poisson import grid2d_random, paper_grid_side

#: Where experiment records are written (EXPERIMENTS.md links here).
RESULTS_DIR = os.environ.get("REPRO_RESULTS_DIR", "results")

#: Seed used by all paper-scale experiments (reported in records).
DEFAULT_SEED = 2008


def paper_workload(n_unknowns: int, seed: int = DEFAULT_SEED):
    """The §7 workload: randomly generated sparse SPD grid system.

    n must be one of the paper's sizes (289, 1089, 4225) or any perfect
    square; returns the electric graph of side √n.
    """
    side = paper_grid_side(n_unknowns)
    return grid2d_random(side, seed=seed)


def paper_split_for(n_unknowns: int, n_procs: int,
                    seed: int = DEFAULT_SEED) -> SplitResult:
    """Regular level-1/level-2 mixed EVS of the §7 workload.

    ``n_procs`` must be a perfect square (16 → 4×4 blocks, 64 → 8×8).
    """
    side = paper_grid_side(n_unknowns)
    blocks = int(round(np.sqrt(n_procs)))
    if blocks * blocks != n_procs:
        raise ValueError(f"n_procs={n_procs} is not a square mesh size")
    graph = paper_workload(n_unknowns, seed)
    partition = grid_block_partition(side, side, blocks, blocks)
    return split_graph(graph, partition,
                       strategy=DominancePreservingSplit())


def default_impedance():
    """Impedance used by the §7 experiments (geometric-mean matched).

    α = 2 sits near the bottom of the Fig 9 U-curve for the random-grid
    family (see the impedance ablation bench).
    """
    return GeometricMeanImpedance(2.0)


def run_paper_dtm(split: SplitResult, topology: Topology, *,
                  t_max: float, tol: Optional[float] = None,
                  impedance=None, min_solve_interval: float = 5.0,
                  sample_interval: Optional[float] = None,
                  reference: Optional[np.ndarray] = None,
                  stopping=None,
                  **kwargs) -> DtmRunResult:
    """DTM run with the experiment defaults.

    ``stopping=None`` keeps the paper's reference-based rule — the
    figure experiments (8, 9, 12, 14) must keep measuring RMS error
    against the direct solution so their traces stay bitwise-identical
    to the published ones; reference-free rules are for production
    solves, not reproduction runs.

    ``min_solve_interval`` of 5 ms coalesces arrivals within half the
    smallest link delay; measured effect on the error trace is < 20 %
    while cutting event counts ~4×.

    Planning (DTLP network, local factorizations, fleet packing) goes
    through the in-process plan cache keyed on the (split, topology,
    impedance) triple, so repeated trials over one configuration —
    benchmark repetitions, figure sweeps — re-plan exactly once.
    Session-level knobs (``min_solve_interval``, compute models,
    logging) stay free per call.
    """
    impedance = impedance or default_impedance()
    plan = get_plan(split=split, topology=topology, impedance=impedance)
    sim = DtmSimulator(plan, min_solve_interval=min_solve_interval,
                       **kwargs)
    # sim.run resolves the rule and computes the reference only when
    # the rule tree needs one (see core.convergence.begin_monitor)
    return sim.run(t_max, tol=tol, stopping=stopping, reference=reference,
                   sample_interval=sample_interval)


def geometric_decay_ok(series, min_drop: float = 10.0) -> bool:
    """Shape check: the error trace decays by ≥ *min_drop* overall and
    its tail slope is negative (geometric decay)."""
    if len(series) < 4:
        return False
    v = np.asarray(series.values, dtype=np.float64)
    drops = v[0] / max(v[-1], 1e-300)
    return bool(drops >= min_drop and series.tail_slope() < 0.0)
