"""Schur-complement method — the direct DDM baseline (paper §1).

Given a partition with a vertex separator ``G_B`` (the same object EVS
consumes), the Schur method eliminates every subdomain interior,
assembles the interface system

.. math:: S = A_{BB} - \\sum_q A_{BI_q} A_{I_qI_q}^{-1} A_{I_qB},
          \\qquad S\\,x_B = b_B - \\sum_q A_{BI_q} A_{I_qI_q}^{-1} b_{I_q}

solves it directly, and back-substitutes the interiors.  It returns the
exact solution (up to rounding), so it doubles as an oracle for the
iterative solvers on identical partitions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import PartitionError
from ..graph.electric import ElectricGraph
from ..graph.partition import Partition
from ..linalg.spd import cho_solver, is_spd


@dataclass
class SchurResult:
    """Solution plus the assembled interface system for inspection."""

    x: np.ndarray
    interface_vertices: np.ndarray
    schur_matrix: np.ndarray
    schur_rhs: np.ndarray
    interior_sizes: list[int]

    @property
    def interface_size(self) -> int:
        return int(self.interface_vertices.size)

    def schur_is_spd(self) -> bool:
        """The Schur complement of an SPD matrix must be SPD."""
        return is_spd(self.schur_matrix)


def solve_schur(graph: ElectricGraph, partition: Partition) -> SchurResult:
    """Solve ``A x = b`` by interface elimination on *partition*.

    The separator vertices form the interface; each part's interior is
    eliminated independently (this is the step a parallel machine would
    distribute, one interior factorization per processor).
    """
    partition.validate(graph)
    a, b = graph.to_system()
    sep = partition.separator
    interface = np.nonzero(sep)[0]
    if interface.size == 0 and partition.n_parts > 1:
        sizes = partition.part_sizes()
        if np.count_nonzero(sizes) > 1:
            raise PartitionError(
                "Schur method needs a non-empty separator between parts")
    x = np.zeros(graph.n)

    a_sp = a.to_scipy()
    s = a_sp[interface][:, interface].toarray()
    rhs = b[interface]

    interiors = []
    interior_data = []
    for q in range(partition.n_parts):
        rows = partition.interior_vertices(q)
        if rows.size == 0:
            interiors.append(0)
            interior_data.append(None)
            continue
        interiors.append(int(rows.size))
        a_rows = a_sp[rows]
        solve = cho_solver(a_rows[:, rows].toarray(),
                           f"the interior block of part {q}")
        a_ib = a_rows[:, interface].toarray()
        w = solve(np.concatenate([b[rows][:, None], a_ib], axis=1))
        y0 = w[:, 0]
        y_b = w[:, 1:]
        if interface.size:
            s -= a_ib.T @ y_b
            rhs -= a_ib.T @ y0
        interior_data.append((rows, y0, y_b))

    if interface.size:
        x_b = cho_solver(s, "the interface Schur complement")(rhs)
        x[interface] = x_b
    else:
        x_b = np.zeros(0)

    for q in range(partition.n_parts):
        data = interior_data[q]
        if data is None:
            continue
        rows, y0, y_b = data
        x[rows] = y0 - (y_b @ x_b if interface.size else 0.0)

    return SchurResult(x=x, interface_vertices=interface, schur_matrix=s,
                       schur_rhs=rhs, interior_sizes=interiors)
