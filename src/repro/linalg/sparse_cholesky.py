"""Sparse SPD factorization over :class:`CsrMatrix` (LDLᵀ form).

The dense :class:`~repro.linalg.cholesky.SpdFactor` caps plan
construction: a 102k-unknown Poisson plan spends ~98 of its ~102
seconds densifying and dense-factoring subdomain systems that are
>99% zeros.  This module provides the sparse path with the same
``solve`` contract, so :class:`~repro.core.local.LocalSystem` is
backend-agnostic:

1. a fill-reducing symmetric permutation from
   :mod:`repro.linalg.ordering` (minimum degree by default);
2. an LDLᵀ factorization of the permuted matrix with **no further
   pivoting**, through one of two engines:

   * ``"scipy"`` — SuperLU in symmetric mode on the pre-permuted
     matrix (``permc_spec="NATURAL"``, ``diag_pivot_thresh=0``), which
     for an SPD input performs exactly the unpivoted elimination, so
     its row/column permutations are the identity, its ``L`` is unit
     lower triangular and ``diag(U)`` is the positive pivot vector;
   * ``"python"`` — an up-looking sparse LDLᵀ (elimination-tree reach
     per row, CSparse-style) on plain numpy arrays, used when scipy is
     unavailable and as the cross-check oracle in the tests.

The factor object is deterministic and picklable: the numeric payload
is the permuted matrix (plus, for the python engine, the explicit
``L``/``d`` arrays); the scipy engine's SuperLU handle is a cache that
is dropped on pickling and rebuilt lazily — refactoring the identical
matrix with the identical library reproduces the identical bits, which
is what keeps pool-built plans bitwise-equal to serially built ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib.util import find_spec
from typing import Optional

import numpy as np

from ..errors import ConfigurationError, NotSpdError, SingularMatrixError
from ..utils.validation import require
from .ordering import minimum_degree, reverse_cuthill_mckee
from .sparse import CsrMatrix

#: scipy is an optional backend (the ``sparse`` extra), never a hard
#: dependency, and it is imported where a SuperLU handle is built
#: (:func:`_splu_symmetric`), not here: a process that only sweeps —
#: every shard worker — never pays the import (0.25–0.35 s)
_HAVE_SCIPY = find_spec("scipy") is not None

#: orderings accepted by :func:`factor_sparse_spd`
_ORDERINGS = ("amd", "rcm", "natural")


@dataclass
class SparseSpdFactor:
    """LDLᵀ factor of a sparse SPD (or quasi-definite) matrix.

    Solves go through the same ``solve(b)`` contract as
    :class:`~repro.linalg.cholesky.SpdFactor`: *b* may be a vector or
    an ``(n, k)`` column block, and block columns are bitwise-identical
    to per-column solves (both engines apply the same elementwise
    sweeps per column).

    Attributes
    ----------
    perm:
        Fill-reducing permutation; the factored matrix is
        ``A[perm][:, perm]``.
    a_data / a_indices / a_indptr:
        The *permuted* matrix, canonical CSR — equal to its CSC arrays
        by symmetry.  This is the payload the scipy engine refactors
        from after unpickling.
    d:
        Pivot vector ``diag(D)``; all positive iff the matrix is SPD.
    engine:
        ``"scipy"`` or ``"python"`` — fixed at factor time so a factor
        solves identically wherever it travels.
    """

    n: int
    perm: np.ndarray
    a_data: np.ndarray
    a_indices: np.ndarray
    a_indptr: np.ndarray
    d: np.ndarray
    engine: str
    #: unit-lower L in CSC, diagonal implicit (python engine only)
    L_data: Optional[np.ndarray] = field(default=None, repr=False)
    L_indices: Optional[np.ndarray] = field(default=None, repr=False)
    L_indptr: Optional[np.ndarray] = field(default=None, repr=False)
    _iperm: Optional[np.ndarray] = field(default=None, repr=False)
    _lu: Optional[object] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self._iperm is None:
            self._iperm = np.empty_like(self.perm)
            self._iperm[self.perm] = np.arange(self.perm.size)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_lu"] = None  # SuperLU handles are not picklable
        state["_iperm"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__post_init__()

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
        """Solve ``A x = b`` through the permuted LDLᵀ factors."""
        rhs = np.asarray(b, dtype=np.float64)
        require(
            rhs.shape[0] == self.n,
            f"solve rhs must have {self.n} rows, got {rhs.shape}",
        )
        bp = rhs[self.perm] if rhs.ndim == 1 else rhs[self.perm, :]
        if self.engine == "scipy":
            x = self._superlu().solve(bp)
        else:
            x = self._solve_python(bp)
        return x[self._iperm] if x.ndim == 1 else x[self._iperm, :]

    # -- engines -------------------------------------------------------
    def _superlu(self):
        """The cached SuperLU handle, rebuilt lazily after unpickling."""
        if self._lu is None:
            if not _HAVE_SCIPY:  # pragma: no cover - scipy-free hosts
                raise ConfigurationError(
                    "factor was built with the scipy engine but scipy is not importable here; refactor the matrix with backend='python'"
                )
            self._lu = _splu_symmetric(
                self.n, self.a_data, self.a_indices, self.a_indptr
            )
        return self._lu

    def _solve_python(self, bp: np.ndarray) -> np.ndarray:
        """Column-at-a-time sweeps over the CSC unit-lower L.

        Block right-hand sides are solved one column at a time so a
        block solve is bitwise-identical to per-column solves (a block
        GEMM would sum in a different order than the per-column GEMV).
        """
        if bp.ndim == 1:
            return self._solve_python_column(bp)
        out = np.empty_like(bp, dtype=np.float64)
        for j in range(bp.shape[1]):
            out[:, j] = self._solve_python_column(bp[:, j])
        return out

    def _solve_python_column(self, b: np.ndarray) -> np.ndarray:
        x = b.astype(np.float64, copy=True)
        Lp, Li, Lx = self.L_indptr, self.L_indices, self.L_data
        for j in range(self.n - 1):
            lo, hi = Lp[j], Lp[j + 1]
            if lo != hi:
                x[Li[lo:hi]] -= Lx[lo:hi] * x[j]
        x /= self.d
        for j in range(self.n - 1, -1, -1):
            lo, hi = Lp[j], Lp[j + 1]
            if lo != hi:
                x[j] -= Lx[lo:hi] @ x[Li[lo:hi]]
        return x


def _splu_symmetric(n, data, indices, indptr):
    """SuperLU factorization of a symmetric pre-permuted matrix.

    ``permc_spec="NATURAL"`` + ``diag_pivot_thresh=0`` make SuperLU
    reproduce the unpivoted elimination of the matrix as given, so the
    fill-reducing permutation applied by the caller is the *only*
    reordering in play.  By symmetry the CSR arrays are also the CSC
    arrays, so no transpose/conversion pass is needed.
    """
    from scipy.sparse import csc_matrix
    from scipy.sparse.linalg import splu

    a = csc_matrix((data, indices, indptr), shape=(n, n))
    return splu(
        a,
        permc_spec="NATURAL",
        diag_pivot_thresh=0.0,
        options=dict(Equil=False, SymmetricMode=True),
    )


def _resolve_ordering(a: CsrMatrix, ordering: str) -> np.ndarray:
    if ordering == "amd":
        return minimum_degree(a)
    if ordering == "rcm":
        return reverse_cuthill_mckee(a)
    if ordering == "natural":
        return np.arange(a.nrows, dtype=np.int64)
    raise ConfigurationError(
        f"unknown sparse ordering {ordering!r}; choose one of {_ORDERINGS}"
    )


def _check_pivots(d: np.ndarray, allow_indefinite: bool) -> None:
    if not np.all(np.isfinite(d)) or np.any(d == 0.0):
        raise SingularMatrixError(
            "sparse LDL^T hit a zero/non-finite pivot: matrix is singular"
        )
    if not allow_indefinite and np.any(d < 0.0):
        raise NotSpdError(
            "matrix is not positive definite (negative LDL^T pivot); pass allow_indefinite=True to keep the indefinite factor"
        )


def factor_sparse_spd(
    a,
    *,
    ordering: str = "amd",
    backend: str = "auto",
    allow_indefinite: bool = False,
    check_symmetry: bool = True,
) -> SparseSpdFactor:
    """Factor a sparse symmetric (normally SPD) matrix, no densifying.

    Parameters
    ----------
    a:
        :class:`CsrMatrix` (a dense array is converted, for parity with
        :func:`~repro.linalg.cholesky.factor_spd`).
    ordering:
        ``"amd"`` (minimum degree, default), ``"rcm"``, or
        ``"natural"``.
    backend:
        ``"auto"`` (scipy when importable, else python), ``"scipy"``,
        or ``"python"``.
    allow_indefinite:
        Keep a factor with negative pivots instead of raising
        :class:`NotSpdError` — the sparse analogue of the dense path's
        LDLᵀ fallback.  Zero pivots always raise
        :class:`SingularMatrixError`.
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
    if check_symmetry and not a.is_symmetric():
        raise NotSpdError("factor_sparse_spd requires a symmetric matrix")
    if backend not in ("auto", "scipy", "python"):
        raise ConfigurationError(
            f"unknown backend {backend!r}; choose auto, scipy or python"
        )
    if backend == "scipy" and not _HAVE_SCIPY:
        raise ConfigurationError(
            "backend='scipy' requested but scipy is not importable"
        )
    engine = backend
    if backend == "auto":
        engine = "scipy" if _HAVE_SCIPY else "python"

    n = a.nrows
    perm = _resolve_ordering(a, ordering)
    ap = a.permuted(perm)

    if engine == "scipy":
        try:
            lu = _splu_symmetric(n, ap.data, ap.indices, ap.indptr)
        except RuntimeError as exc:  # "Factor is exactly singular"
            raise SingularMatrixError(
                f"SuperLU failed on the permuted matrix: {exc}"
            ) from exc
        identity = np.arange(n)
        natural_r = np.array_equal(lu.perm_r, identity)
        natural_c = np.array_equal(lu.perm_c, identity)
        if not (natural_r and natural_c):
            # SymmetricMode declined the unpivoted elimination; the
            # python engine handles the matrix (or raises) exactly
            engine = "python"
        else:
            d = np.asarray(lu.U.diagonal(), dtype=np.float64)
            _check_pivots(d, allow_indefinite)
            return SparseSpdFactor(
                n=n,
                perm=perm,
                a_data=ap.data,
                a_indices=ap.indices,
                a_indptr=ap.indptr,
                d=d,
                engine="scipy",
                _lu=lu,
            )

    Lp, Li, Lx, d = _ldlt_up_looking(n, ap.indptr, ap.indices, ap.data)
    _check_pivots(d, allow_indefinite)
    return SparseSpdFactor(
        n=n,
        perm=perm,
        a_data=ap.data,
        a_indices=ap.indices,
        a_indptr=ap.indptr,
        d=d,
        engine="python",
        L_data=Lx,
        L_indices=Li,
        L_indptr=Lp,
    )


def _ldlt_up_looking(n, indptr, indices, data):
    """Up-looking sparse LDLᵀ of a symmetric CSR matrix (no pivoting).

    Row *k*'s pattern is the union of elimination-tree paths from the
    nonzeros of ``A(k, :k)`` (CSparse's ``ereach``); ascending column
    order is a valid topological order because etree parents always
    have larger indices.  Returns ``(L_indptr, L_indices, L_data, d)``:
    the strictly-lower ``L`` in CSC (unit diagonal implicit) plus the
    pivot vector ``d``.
    """
    parent = np.full(n, -1, dtype=np.int64)
    ancestor = np.full(n, -1, dtype=np.int64)
    flag = np.full(n, -1, dtype=np.int64)
    d = np.zeros(n, dtype=np.float64)
    y = np.zeros(n, dtype=np.float64)
    col_rows: list[list[int]] = [[] for _ in range(n)]
    col_vals: list[list[float]] = [[] for _ in range(n)]

    for k in range(n):
        lo, hi = int(indptr[k]), int(indptr[k + 1])
        below = [
            (int(indices[p]), float(data[p]))
            for p in range(lo, hi)
            if indices[p] < k
        ]
        dk = 0.0
        for p in range(lo, hi):
            if indices[p] == k:
                dk = float(data[p])
                break
        # 1) extend the elimination tree with row k (cs_etree step,
        #    with `ancestor` path compression)
        for i, _v in below:
            j = i
            while j != -1 and j < k:
                jnext = int(ancestor[j])
                ancestor[j] = k
                if jnext == -1:
                    parent[j] = k
                j = jnext
        # 2) row pattern = etree reach of the below-diagonal nonzeros
        #    (cs_ereach); ascending order is topological since etree
        #    parents always carry larger indices
        flag[k] = k
        pattern: list[int] = []
        for i, v in below:
            y[i] = v
            j = i
            while flag[j] != k:
                pattern.append(j)
                flag[j] = k
                j = int(parent[j])
        pattern.sort()
        # 3) numeric up-looking sweep over the pattern columns
        for j in pattern:
            yj = y[j]
            y[j] = 0.0
            if yj == 0.0:
                continue
            rows_j = col_rows[j]
            vals_j = col_vals[j]
            for idx in range(len(rows_j)):
                y[rows_j[idx]] -= vals_j[idx] * yj
            lkj = yj / d[j]
            dk -= lkj * yj
            rows_j.append(k)
            vals_j.append(lkj)
        d[k] = dk
        if dk == 0.0:
            break  # singular: stop early, _check_pivots reports it

    L_indptr = np.zeros(n + 1, dtype=np.int64)
    if n:
        np.cumsum([len(r) for r in col_rows], out=L_indptr[1:])
    L_indices = np.asarray(
        [r for rows in col_rows for r in rows], dtype=np.int64
    )
    L_data = np.asarray(
        [v for vals in col_vals for v in vals], dtype=np.float64
    )
    return L_indptr, L_indices, L_data, d
