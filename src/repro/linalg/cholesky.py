"""Factor objects wrapping the dense kernels, plus a sparse front end.

:class:`SpdFactor` is the object each DTM subdomain keeps for the
lifetime of a run: the coefficient matrix of the local system (5.9) is
constant, so it is factored exactly once and every subsequent solve is a
pair of triangular substitutions — or, on the hot path, a single GEMV
against the cached explicit inverse (:meth:`SpdFactor.inverse`).

A :class:`CsrMatrix` input is densified in natural order: the sparse
path that never densifies is
:func:`~repro.linalg.sparse_cholesky.factor_sparse_spd`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..utils.validation import as_square_matrix, check_symmetric
from .dense import (
    cholesky_factor,
    cholesky_solve,
    invert_lower,
    ldlt_factor,
    ldlt_solve,
)
from .sparse import CsrMatrix


@dataclass
class SpdFactor:
    """Cholesky factor of an SPD matrix with optional cached inverse.

    Attributes
    ----------
    L:
        Lower Cholesky factor.
    """

    L: np.ndarray
    _inv: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def n(self) -> int:
        """Dimension of the factored matrix."""
        return self.L.shape[0]

    def solve(self, b) -> np.ndarray:
        """Solve ``A x = b`` via forward/backward substitution."""
        return cholesky_solve(self.L, np.asarray(b, dtype=np.float64))

    def inverse(self) -> np.ndarray:
        """Explicit inverse (cached).

        The DTM hot loop prefers ``Ainv @ rhs`` (one BLAS call) over a
        pair of interpreted triangular sweeps; for the small, well
        conditioned local systems this is numerically benign.
        """
        if self._inv is None:
            Linv = invert_lower(self.L)
            self._inv = Linv.T @ Linv
        return self._inv

    def logdet(self) -> float:
        """Log-determinant of A (twice the log of the pivot product)."""
        return 2.0 * float(np.sum(np.log(np.diag(self.L))))


@dataclass
class SymFactor:
    """LDLᵀ factor for symmetric (quasi-definite) matrices."""

    L: np.ndarray
    d: np.ndarray

    @property
    def n(self) -> int:
        return self.L.shape[0]

    def solve(self, b) -> np.ndarray:
        """Solve ``A x = b`` with the LDLᵀ factors."""
        return ldlt_solve(self.L, self.d, np.asarray(b, dtype=np.float64))

    def inertia(self) -> tuple[int, int, int]:
        """(n_positive, n_zero, n_negative) pivots — a definiteness probe."""
        pos = int(np.sum(self.d > 0))
        neg = int(np.sum(self.d < 0))
        return pos, self.d.size - pos - neg, neg


def factor_spd(a, *, check_symmetry: bool = True,
               overwrite_a: bool = False) -> SpdFactor:
    """Factor a dense array or :class:`CsrMatrix` known to be SPD.

    Parameters
    ----------
    overwrite_a:
        For a dense float64 input: factor in place, destroying *a*'s
        contents, instead of taking a defensive copy first.
    """
    if isinstance(a, CsrMatrix):
        dense = a.to_dense()
        if check_symmetry:
            check_symmetric(dense, "a")
        # dense is a fresh scratch: factor it in place
        return SpdFactor(cholesky_factor(dense, overwrite=True))
    dense = as_square_matrix(a, "a")
    if check_symmetry:
        check_symmetric(dense, "a")
    return SpdFactor(cholesky_factor(dense, overwrite=overwrite_a))


def factor_symmetric(a) -> SymFactor:
    """LDLᵀ-factor a dense symmetric matrix (no definiteness required)."""
    dense = as_square_matrix(a, "a")
    check_symmetric(dense, "a")
    L, d = ldlt_factor(dense)
    return SymFactor(L, d)

