"""SPD / SNND certification — the hypotheses of Theorem 6.1.

The convergence theorem requires at least one subgraph to be SPD and all
others to be symmetric-non-negative-definite (SNND).  This module turns
those hypotheses into executable checks used by
:mod:`repro.graph.evs` validation and by the property-based tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..utils.validation import as_square_matrix, check_symmetric
from .sparse import CsrMatrix


def _to_dense_sym(a, name: str) -> np.ndarray:
    dense = a.to_dense() if isinstance(a, CsrMatrix) else as_square_matrix(a, name)
    check_symmetric(dense, name)
    return dense


def is_spd(a, *, name: str = "matrix") -> bool:
    """True iff *a* is symmetric positive definite (Cholesky succeeds)."""
    try:
        dense = _to_dense_sym(a, name)
    except Exception:
        return False
    try:
        np.linalg.cholesky(dense)
        return True
    except np.linalg.LinAlgError:
        return False


def min_eigenvalue(a) -> float:
    """Smallest eigenvalue of a symmetric matrix (dense eigensolver)."""
    dense = _to_dense_sym(a, "matrix")
    if dense.shape[0] == 0:
        return 0.0
    return float(np.linalg.eigvalsh(dense)[0])


def is_snnd(a, *, tol: float = 1e-10) -> bool:
    """True iff *a* is symmetric non-negative definite within tolerance.

    The tolerance is relative to the matrix scale: eigenvalues above
    ``-tol * max|a_ij|`` are accepted as non-negative, which absorbs the
    rounding incurred when EVS splits weights.
    """
    try:
        dense = _to_dense_sym(a, "matrix")
    except Exception:
        return False
    if dense.shape[0] == 0:
        return True
    scale = max(float(np.max(np.abs(dense))), 1.0)
    return min_eigenvalue(dense) >= -tol * scale


@dataclass
class DefinitenessReport:
    """Definiteness summary for a collection of subgraph matrices."""

    spd_flags: list[bool]
    snnd_flags: list[bool]
    min_eigenvalues: list[float]

    @property
    def n_spd(self) -> int:
        return sum(self.spd_flags)

    @property
    def satisfies_theorem(self) -> bool:
        """Theorem 6.1 hypothesis: >=1 SPD subgraph, all SNND."""
        return self.n_spd >= 1 and all(self.snnd_flags)

    def summary(self) -> str:
        lines = [f"subgraphs: {len(self.spd_flags)}  SPD: {self.n_spd}  "
                 f"theorem 6.1 hypothesis: "
                 f"{'SATISFIED' if self.satisfies_theorem else 'VIOLATED'}"]
        for i, (s, nn, ev) in enumerate(zip(self.spd_flags, self.snnd_flags,
                                            self.min_eigenvalues)):
            kind = "SPD" if s else ("SNND" if nn else "INDEFINITE")
            lines.append(f"  subgraph {i}: {kind} (min eig {ev:+.3e})")
        return "\n".join(lines)


def definiteness_report(matrices) -> DefinitenessReport:
    """Classify each matrix as SPD / SNND / indefinite."""
    spd_flags, snnd_flags, eigs = [], [], []
    for m in matrices:
        spd_flags.append(is_spd(m))
        snnd_flags.append(spd_flags[-1] or is_snnd(m))
        eigs.append(min_eigenvalue(m))
    return DefinitenessReport(spd_flags, snnd_flags, eigs)
