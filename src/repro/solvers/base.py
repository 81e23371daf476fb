"""Shared pieces for the domain-decomposition baseline solvers.

The paper's introduction positions DTM against the classic DDM family:
Schur complement, additive Schwarz (block-Jacobi) and multiplicative
Schwarz (block-Gauss–Seidel), plus the *asynchronous* block-Jacobi that
earlier asynchronous-iteration work studied.  The baselines here run on
the same partitions and (for the asynchronous one) the same simulated
machine as DTM, which is what makes the comparison benches meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from ..errors import PartitionError
from ..graph.electric import ElectricGraph
from ..graph.partition import Partition
from ..utils.timeseries import TimeSeries


@dataclass
class BlockStructure:
    """Row blocks of ``A`` induced by partition labels (no splitting).

    Unlike EVS, the baselines use plain row partitioning: subdomain *q*
    owns the unknowns labelled *q* (separator vertices included — they
    stay whole).  For each block we precompute the diagonal-block factor
    and the affine update map used by block relaxation:

    .. math:: x_q = A_{qq}^{-1} (b_q - A_{q,ext} x_{ext})
                  = x_q^0 - M_q x_{ext}.
    """

    owned: list[np.ndarray]
    ext_vertices: list[np.ndarray]
    x0: list[np.ndarray]
    M: list[np.ndarray]
    #: for each part, for each owned boundary vertex: (local_row,
    #: [(dest_part, dest_slot), ...])
    send_plan: list[list[tuple[int, list[tuple[int, int]]]]]
    n: int
    n_parts: int


def build_block_structure(graph: ElectricGraph,
                          partition: Partition) -> BlockStructure:
    """Precompute the block-relaxation data for every subdomain."""
    a, b = graph.to_system()
    a_sp = a.to_scipy()
    labels = partition.labels
    n_parts = partition.n_parts
    owned = [np.nonzero(labels == q)[0] for q in range(n_parts)]
    if any(o.size == 0 for o in owned):
        raise PartitionError(
            "block baselines require every part to own at least one row")
    local_index = np.full(graph.n, -1, dtype=np.int64)
    for q, rows in enumerate(owned):
        local_index[rows] = np.arange(rows.size)

    ext_vertices: list[np.ndarray] = []
    x0: list[np.ndarray] = []
    M: list[np.ndarray] = []
    slot_of: list[dict[int, int]] = []
    for q in range(n_parts):
        rows = owned[q]
        a_rows = a_sp[rows]
        # external columns touched by this block's rows
        touched = a_rows.indices
        ext_arr = np.unique(touched[labels[touched] != q]).astype(np.int64)
        factor = cho_factor(a_rows[:, rows].toarray())
        x0_q = cho_solve(factor, b[rows])
        if ext_arr.size:
            m_q = cho_solve(factor, a_rows[:, ext_arr].toarray())
        else:
            m_q = np.zeros((rows.size, 0))
        ext_vertices.append(ext_arr)
        x0.append(x0_q)
        M.append(m_q)
        slot_of.append({int(v): i for i, v in enumerate(ext_arr)})

    send_plan: list[list[tuple[int, list[tuple[int, int]]]]] = []
    for q in range(n_parts):
        plan: list[tuple[int, list[tuple[int, int]]]] = []
        for v in owned[q]:
            dests = [(r, slot_of[r][int(v)]) for r in range(n_parts)
                     if r != q and int(v) in slot_of[r]]
            if dests:
                plan.append((int(local_index[v]), dests))
        send_plan.append(plan)
    return BlockStructure(owned=owned, ext_vertices=ext_vertices, x0=x0,
                          M=M, send_plan=send_plan, n=graph.n,
                          n_parts=n_parts)


@dataclass
class BaselineResult:
    """Common result record for the baseline solvers."""

    x: np.ndarray
    errors: TimeSeries
    converged: bool
    iterations: int = 0
    t_end: float = 0.0
    time_to_tol: Optional[float] = None
    n_solves: int = 0
    n_messages: int = 0
    diverged: bool = False

    @property
    def final_error(self) -> float:
        return float(self.errors.final) if len(self.errors) else np.inf


def reference_for(graph: ElectricGraph) -> np.ndarray:
    """Direct reference solution of the graph's system."""
    from ..linalg.iterative import direct_reference_solution

    a, b = graph.to_system()
    return direct_reference_solution(a, b)
