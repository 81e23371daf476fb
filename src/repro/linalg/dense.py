"""Dense factorization kernels implemented on numpy.

These are the numerical work-horses behind each subdomain's constant
local system: a blocked Cholesky factorization, an LDLᵀ fallback for
symmetric quasi-definite matrices, triangular solves, and triangular
inversion (used to precompute the explicit local inverse exploited by
the DTM hot loop — "factor once, then forward/backward substitution is a
piece of cake", §5 of the paper, taken one step further).

All loops iterate over matrix *columns/blocks* with vectorised bodies,
per the project's HPC-Python guidance: O(n) interpreted iterations, O(n²)
numpy work.
"""

from __future__ import annotations

import numpy as np

from ..errors import NotSpdError, SingularMatrixError
from ..utils.validation import as_square_matrix, require


def cholesky_factor(a, block: int = 48, *, overwrite: bool = False) -> np.ndarray:
    """Blocked lower Cholesky factor L with ``A = L Lᵀ``.

    Raises :class:`NotSpdError` when a non-positive pivot appears, which
    doubles as the package's cheap SPD certificate.  With ``overwrite``
    a float64 C-contiguous input array is factored in place (its
    contents are destroyed) instead of being copied first.
    """
    A = as_square_matrix(a, "a")
    if not (overwrite and A is a and A.flags.c_contiguous
            and A.flags.writeable):
        A = np.array(A, copy=True)
    n = A.shape[0]
    require(block >= 1, "block must be >= 1")
    for j0 in range(0, n, block):
        j1 = min(j0 + block, n)
        _cholesky_unblocked_inplace(A, j0, j1)
        if j1 < n:
            panel = A[j1:, j0:j1]
            A[j1:, j0:j1] = solve_triangular_right_t(A[j0:j1, j0:j1], panel)
            A[j1:, j1:] -= A[j1:, j0:j1] @ A[j1:, j0:j1].T
    return np.tril(A)


def _cholesky_unblocked_inplace(A: np.ndarray, j0: int, j1: int) -> None:
    """Factor the diagonal block ``A[j0:j1, j0:j1]`` in place (lower)."""
    for j in range(j0, j1):
        row = A[j, j0:j]
        pivot = A[j, j] - row @ row
        if pivot <= 0.0 or not np.isfinite(pivot):
            raise NotSpdError(
                f"Cholesky pivot {pivot:.3e} at index {j}: matrix is not "
                "positive definite")
        d = np.sqrt(pivot)
        A[j, j] = d
        if j + 1 < j1:
            A[j + 1:j1, j] = (A[j + 1:j1, j] - A[j + 1:j1, j0:j] @ row) / d


def ldlt_factor(a) -> tuple[np.ndarray, np.ndarray]:
    """Unpivoted LDLᵀ factorization ``A = L D Lᵀ`` (unit lower L).

    Suitable for the symmetric quasi-definite local systems that arise
    when a subgraph is SNND-but-singular before the DTL impedance terms
    are added; raises :class:`SingularMatrixError` on a vanishing pivot.
    """
    A = np.array(as_square_matrix(a, "a"), copy=True)
    n = A.shape[0]
    L = np.eye(n)
    d = np.zeros(n)
    scale = max(float(np.max(np.abs(A))), 1.0)
    for j in range(n):
        lj = L[j, :j]
        dj = A[j, j] - (lj * lj) @ d[:j]
        if abs(dj) <= 1e-14 * scale or not np.isfinite(dj):
            raise SingularMatrixError(
                f"LDL^T pivot {dj:.3e} at index {j} is numerically zero")
        d[j] = dj
        if j + 1 < n:
            L[j + 1:, j] = (A[j + 1:, j] - L[j + 1:, :j] @ (d[:j] * lj)) / dj
    return L, d


def solve_lower(L: np.ndarray, b: np.ndarray, *, unit_diagonal: bool = False
                ) -> np.ndarray:
    """Forward substitution for ``L x = b`` (L lower triangular).

    *b* may be a vector or a matrix of right-hand sides.
    """
    n = L.shape[0]
    x = np.array(b, dtype=np.float64, copy=True)
    for j in range(n):
        if not unit_diagonal:
            x[j] = x[j] / L[j, j]
        if j + 1 < n:
            x[j + 1:] -= np.multiply.outer(L[j + 1:, j], x[j]) \
                if x.ndim > 1 else L[j + 1:, j] * x[j]
    return x


def solve_upper(U: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Backward substitution for ``U x = b`` (U upper triangular)."""
    n = U.shape[0]
    x = np.array(b, dtype=np.float64, copy=True)
    for j in range(n - 1, -1, -1):
        x[j] = x[j] / U[j, j]
        if j > 0:
            x[:j] -= np.multiply.outer(U[:j, j], x[j]) \
                if x.ndim > 1 else U[:j, j] * x[j]
    return x


def solve_triangular_right_t(L: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Solve ``X Lᵀ = B`` for X with L lower triangular.

    Used by the blocked Cholesky panel update; columns are produced left
    to right with fully vectorised row arithmetic.
    """
    n = L.shape[0]
    X = np.array(B, dtype=np.float64, copy=True)
    for j in range(n):
        if j > 0:
            X[:, j] -= X[:, :j] @ L[j, :j]
        X[:, j] /= L[j, j]
    return X


def invert_lower(L: np.ndarray) -> np.ndarray:
    """Invert a lower-triangular matrix column by column.

    ``invert_lower(L) @ L == I``; combined as ``Linv.T @ Linv`` this gives
    the explicit SPD inverse the DTM hot loop uses.
    """
    n = L.shape[0]
    diag = np.diag(L)
    if np.any(diag == 0.0):
        raise SingularMatrixError("triangular matrix has a zero diagonal entry")
    X = np.zeros_like(L)
    # Column j of X solves L x = e_j; process all columns with one
    # forward sweep over rows to keep the interpreted loop O(n).
    X[np.arange(n), np.arange(n)] = 1.0 / diag
    for i in range(1, n):
        # x_i = (e_j[i] - L[i,:i] @ X[:i, j]) / L[i,i] for every column j<i
        X[i, :i] = -(L[i, :i] @ X[:i, :i]) / L[i, i]
    return X


def cholesky_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``(L Lᵀ) x = b`` given the lower Cholesky factor."""
    return solve_upper(L.T, solve_lower(L, b))


def ldlt_solve(L: np.ndarray, d: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``(L D Lᵀ) x = b`` given the LDLᵀ factors."""
    y = solve_lower(L, b, unit_diagonal=True)
    if y.ndim > 1:
        y = y / d[:, None]
    else:
        y = y / d
    return solve_upper(_unit_upper(L), y)


def _unit_upper(L: np.ndarray) -> np.ndarray:
    """Return Lᵀ with an explicit unit diagonal (for ldlt_solve)."""
    U = L.T.copy()
    np.fill_diagonal(U, 1.0)
    return U
