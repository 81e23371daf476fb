"""Sparse SPD factorization over :class:`CsrMatrix` (LDLᵀ form).

The one factorization of a constant system in this package: every
subdomain's :class:`~repro.core.local.LocalSystem` and every plan's
reference solution go through it, at every size, without densifying
systems that are >99% zeros.

One engine orders and factors: SuperLU in symmetric mode
(``permc_spec="MMD_AT_PLUS_A"``, ``diag_pivot_thresh=0``).  It applies
a minimum-degree ordering of ``A + Aᵀ`` symmetrically and, for an SPD
input, performs the unpivoted elimination of the reordered matrix, so
its row and column permutations coincide, its ``L`` is unit lower
triangular and ``diag(U)`` is the pivot vector ``diag(D)``.  A zero
pivot makes SuperLU pivot off the diagonal instead, which breaks
``perm_r == perm_c``; that is reported as a singular matrix.

The factor object is deterministic and picklable: the numeric payload
is the matrix itself, and the SuperLU handle is a cache that is dropped
on pickling and rebuilt lazily — refactoring the identical matrix with
the identical library reproduces the identical bits, which is what
keeps pool-built and loaded plans bitwise-equal to serially built ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import NotSpdError, SingularMatrixError
from ..utils.validation import require
from .sparse import CsrMatrix, is_symmetric


@dataclass
class SparseSpdFactor:
    """LDLᵀ factor of a sparse SPD (or quasi-definite) matrix.

    ``solve(b)`` takes a vector or an ``(n, k)`` column block, and
    block columns are bitwise-identical to per-column solves (SuperLU
    applies the same sweeps per column).

    Attributes
    ----------
    a_data / a_indices / a_indptr:
        The factored matrix, canonical CSR — equal to its CSC arrays by
        symmetry.  This is the payload SuperLU refactors from after
        unpickling.
    """

    n: int
    a_data: np.ndarray
    a_indices: np.ndarray
    a_indptr: np.ndarray
    _d: Optional[np.ndarray] = field(default=None, repr=False)
    _lu: Optional[object] = field(default=None, repr=False)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_lu"] = None  # SuperLU handles are not picklable
        return state

    def _splu(self):
        if self._lu is None:  # rebuilt lazily after unpickling
            self._lu = _splu_symmetric(
                self.n, self.a_data, self.a_indices, self.a_indptr
            )
        return self._lu

    @property
    def d(self) -> np.ndarray:
        """Pivot vector ``diag(D)``; all positive iff the matrix is SPD.

        Read off SuperLU's ``U`` on first use: materializing ``U`` costs
        a transient copy of the whole factor, which a factor nobody
        asks for pivots (an ``allow_indefinite`` one) never pays.
        """
        if self._d is None:
            self._d = np.asarray(self._splu().U.diagonal(), dtype=np.float64)
        return self._d

    @property
    def is_spd(self) -> bool:
        """Whether every pivot is positive (SPD certificate)."""
        return bool(np.all(self.d > 0.0))

    def inertia(self) -> tuple[int, int, int]:
        """(n_positive, n_zero, n_negative) pivots."""
        pos = int(np.sum(self.d > 0))
        neg = int(np.sum(self.d < 0))
        return pos, self.d.size - pos - neg, neg

    def logdet(self) -> float:
        """Log-determinant (requires SPD; pivot product in log space)."""
        if not self.is_spd:
            return float("nan")
        return float(np.sum(np.log(self.d)))

    def solve(self, b) -> np.ndarray:
        """Solve ``A x = b`` through the SuperLU factors."""
        rhs = np.asarray(b, dtype=np.float64)
        require(
            rhs.shape[0] == self.n,
            f"solve rhs must have {self.n} rows, got {rhs.shape}",
        )
        return self._splu().solve(rhs)


def _splu_symmetric(n, data, indices, indptr):
    """SuperLU factorization of a symmetric matrix, diagonal pivots.

    ``permc_spec="MMD_AT_PLUS_A"`` + ``SymmetricMode`` order the matrix
    symmetrically by minimum degree, and ``diag_pivot_thresh=0`` keeps
    every nonzero diagonal pivot.  By symmetry the CSR arrays are also
    the CSC arrays, so no transpose/conversion pass is needed.  scipy
    is imported here, not at module level: a process that only sweeps
    — every shard worker — never pays the import.
    """
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    a = csc_matrix((data, indices, indptr), shape=(n, n))
    return splu(
        a,
        permc_spec="MMD_AT_PLUS_A",
        diag_pivot_thresh=0.0,
        options=dict(Equil=False, SymmetricMode=True),
    )


def _check_pivots(d: np.ndarray) -> None:
    if not np.all(np.isfinite(d)) or np.any(d == 0.0):
        raise SingularMatrixError(
            "sparse LDL^T hit a zero/non-finite pivot: matrix is singular"
        )
    if np.any(d < 0.0):
        raise NotSpdError(
            "matrix is not positive definite (negative LDL^T pivot); pass allow_indefinite=True to keep the indefinite factor"
        )


def _gershgorin_spd(a: CsrMatrix) -> bool:
    """Whether Gershgorin's discs prove the symmetric *a* SPD: every
    diagonal entry positive and strictly above its row's off-diagonal
    absolute sum — with no factor to read."""
    n = a.nrows
    rows = np.repeat(np.arange(n), np.diff(a.indptr))
    on = rows == a.indices
    diag = np.bincount(rows[on], a.data[on], n)
    off = np.bincount(rows[~on], np.abs(a.data[~on]), n)
    return bool(np.all(diag > off))


def factor_sparse_spd(
    a,
    *,
    allow_indefinite: bool = False,
    check_symmetry: bool = True,
) -> SparseSpdFactor:
    """Factor a sparse symmetric (normally SPD) matrix, no densifying.

    Parameters
    ----------
    a:
        :class:`CsrMatrix` (a dense array is converted).
    allow_indefinite:
        Keep a factor with negative pivots instead of raising
        :class:`NotSpdError`; its pivots are then not read at all
        until asked for.  Zero pivots always raise
        :class:`SingularMatrixError`.  Without it the pivots are read
        (and checked) only when the matrix is not strictly diagonally
        dominant with a positive diagonal — Gershgorin proves such a
        symmetric matrix SPD, and a SuperLU pivot read materializes
        the factor's whole ``U`` for the handle's lifetime.
    check_symmetry:
        Verify symmetry first (the factorization silently assumes it).
        Builders that assemble symmetric systems by construction pass
        ``False``.
    """
    if not isinstance(a, CsrMatrix):
        a = CsrMatrix.from_dense(np.asarray(a, dtype=np.float64))
    require(
        a.nrows == a.ncols,
        f"factor_sparse_spd needs a square matrix, got {a.shape}",
    )
    if check_symmetry and not is_symmetric(a):
        raise NotSpdError("factor_sparse_spd requires a symmetric matrix")

    n = a.nrows
    try:
        lu = _splu_symmetric(n, a.data, a.indices, a.indptr)
    except RuntimeError as exc:  # "Factor is exactly singular"
        raise SingularMatrixError(f"SuperLU failed: {exc}") from exc
    if not np.array_equal(lu.perm_r, lu.perm_c):
        # SuperLU only leaves the diagonal when the pivot there is zero:
        # the first such elimination step names the zero pivot
        step = int(lu.perm_c[lu.perm_r != lu.perm_c].min())
        row = int(np.flatnonzero(lu.perm_c == step)[0])
        raise SingularMatrixError(
            f"sparse LDL^T hit a zero pivot on the diagonal of row {row} (elimination step {step}): matrix is singular"
        )
    factor = SparseSpdFactor(
        n=n, a_data=a.data, a_indices=a.indices, a_indptr=a.indptr, _lu=lu
    )
    if not allow_indefinite and not _gershgorin_spd(a):
        # reading the pivots materializes SuperLU's U, which the handle
        # then keeps for life: only where no certificate spares it
        _check_pivots(factor.d)
    return factor
