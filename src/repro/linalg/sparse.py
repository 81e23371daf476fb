"""A compact CSR sparse-matrix substrate built on numpy.

The library's contribution (DTM) needs a sparse-matrix layer for the
electric graph, the EVS subsystem extraction and the reference iterative
solvers.  Rather than depending on :mod:`scipy.sparse` for core paths, we
implement the operations we need on plain numpy arrays; scipy is used
as an oracle in the test-suite and for the one sparse factorization
(:mod:`repro.linalg.sparse_cholesky`).

Layout is standard CSR: ``data``/``indices`` hold the nonzeros row by
row, ``indptr[i]:indptr[i+1]`` delimits row *i*.  Column indices within a
row are kept sorted and duplicate entries are summed on construction.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Sequence

import numpy as np

from ..errors import ValidationError
from ..utils.validation import require, require_index_array

#: active :func:`forbid_densify` scopes (innermost last); non-empty
#: makes :meth:`CsrMatrix.to_dense` raise instead of materialising
_DENSIFY_FORBIDDEN: list[str] = []


@contextmanager
def forbid_densify(reason: str = "densification is forbidden here"):
    """Make any :meth:`CsrMatrix.to_dense` inside the block raise.

    The sparse-numerics invariant tests wrap an entire plan build +
    reference-free solve in this guard to prove that no subdomain
    matrix and no global reference matrix is ever materialised dense
    (the sparse analogue of ``SolverPlan.reference_materialized``).
    Scopes nest; the guard is a main-thread test hook, not a
    synchronisation primitive.
    """
    _DENSIFY_FORBIDDEN.append(reason)
    try:
        yield
    finally:
        _DENSIFY_FORBIDDEN.pop()


class CsrMatrix:
    """Immutable CSR sparse matrix (float64 values, int64 indices).

    Construct with :meth:`from_coo`, :meth:`from_dense`, or the raw CSR
    constructor (arrays are validated and canonicalised).
    """

    __slots__ = ("data", "indices", "indptr", "shape")

    def __init__(
        self,
        data: np.ndarray,
        indices: np.ndarray,
        indptr: np.ndarray,
        shape: tuple[int, int],
        *,
        _trusted: bool = False,
    ) -> None:
        nrows, ncols = int(shape[0]), int(shape[1])
        require(nrows >= 0 and ncols >= 0, "shape must be non-negative")
        data = np.ascontiguousarray(data, dtype=np.float64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        if not _trusted:
            require(indptr.ndim == 1 and indptr.size == nrows + 1,
                    f"indptr must have length nrows+1={nrows + 1}")
            require(indptr[0] == 0 and indptr[-1] == data.size,
                    "indptr must start at 0 and end at nnz")
            require(np.all(np.diff(indptr) >= 0), "indptr must be non-decreasing")
            require(data.shape == indices.shape, "data/indices length mismatch")
            if indices.size:
                require(int(indices.min()) >= 0 and int(indices.max()) < ncols,
                        "column indices out of range")
            data, indices = _canonicalise_rows(data, indices, indptr)
        self.data = data
        self.indices = indices
        self.indptr = indptr
        self.shape = (nrows, ncols)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(
        cls,
        rows: Sequence[int],
        cols: Sequence[int],
        vals: Sequence[float],
        shape: tuple[int, int],
    ) -> "CsrMatrix":
        """Build from coordinate triplets; duplicates are summed."""
        nrows, ncols = int(shape[0]), int(shape[1])
        r = require_index_array(rows, "rows", upper=max(nrows, 1))
        c = require_index_array(cols, "cols", upper=max(ncols, 1))
        v = np.asarray(vals, dtype=np.float64)
        require(r.size == c.size == v.size, "rows/cols/vals length mismatch")
        if nrows == 0 or r.size == 0:
            return cls.zeros((nrows, ncols)) if r.size == 0 else cls.zeros(shape)
        order = np.lexsort((c, r))
        r, c, v = r[order], c[order], v[order]
        # collapse duplicates
        keep = np.empty(r.size, dtype=bool)
        keep[0] = True
        np.not_equal(r[1:], r[:-1], out=keep[1:])
        keep[1:] |= c[1:] != c[:-1]
        group = np.cumsum(keep) - 1
        vv = np.zeros(int(group[-1]) + 1, dtype=np.float64)
        np.add.at(vv, group, v)
        rr, cc = r[keep], c[keep]
        indptr = np.zeros(nrows + 1, dtype=np.int64)
        np.add.at(indptr, rr + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(vv, cc, indptr, (nrows, ncols), _trusted=True)

    @classmethod
    def from_dense(cls, a, *, tol: float = 0.0) -> "CsrMatrix":
        """Build from a dense array, dropping entries with |a_ij| <= tol.

        The result is canonical by construction — the row-major scan of
        a dense array yields each row's surviving columns already
        sorted and duplicate-free, exactly the invariant
        :meth:`from_coo` enforces by sorting/summing — so the arrays
        are assembled directly with no lexsort pass.
        """
        arr = np.asarray(a, dtype=np.float64)
        require(arr.ndim == 2, "from_dense expects a 2-D array")
        mask = np.abs(arr) > tol
        indptr = np.zeros(arr.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.count_nonzero(mask, axis=1), out=indptr[1:])
        indices = np.nonzero(mask)[1].astype(np.int64)
        return cls(arr[mask], indices, indptr, arr.shape, _trusted=True)

    @classmethod
    def zeros(cls, shape: tuple[int, int]) -> "CsrMatrix":
        """All-zero matrix of the given shape."""
        nrows = int(shape[0])
        return cls(
            np.empty(0), np.empty(0, dtype=np.int64),
            np.zeros(nrows + 1, dtype=np.int64), shape, _trusted=True,
        )

    @classmethod
    def identity(cls, n: int) -> "CsrMatrix":
        """The n×n identity."""
        idx = np.arange(n, dtype=np.int64)
        return cls(np.ones(n), idx, np.arange(n + 1, dtype=np.int64),
                   (n, n), _trusted=True)

    @classmethod
    def from_scipy(cls, mat) -> "CsrMatrix":
        """Convert from any scipy.sparse matrix (test oracle helper)."""
        m = mat.tocsr()
        return cls(np.asarray(m.data, dtype=np.float64),
                   np.asarray(m.indices, dtype=np.int64),
                   np.asarray(m.indptr, dtype=np.int64),
                   m.shape)

    # ------------------------------------------------------------------
    # basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.data.size)

    @property
    def nrows(self) -> int:
        return self.shape[0]

    @property
    def ncols(self) -> int:
        return self.shape[1]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CsrMatrix(shape={self.shape}, nnz={self.nnz})"

    def copy(self) -> "CsrMatrix":
        return CsrMatrix(self.data.copy(), self.indices.copy(),
                         self.indptr.copy(), self.shape, _trusted=True)

    # ------------------------------------------------------------------
    # dense interop
    # ------------------------------------------------------------------
    def to_dense(self) -> np.ndarray:
        """Materialise as a dense float64 array."""
        if _DENSIFY_FORBIDDEN:
            raise ValidationError(
                f"CsrMatrix{self.shape} densified inside a "
                f"forbid_densify scope: {_DENSIFY_FORBIDDEN[-1]}")
        out = np.zeros(self.shape, dtype=np.float64)
        rows = np.repeat(np.arange(self.nrows), np.diff(self.indptr))
        out[rows, self.indices] = self.data
        return out

    def to_scipy(self):
        """Convert to :class:`scipy.sparse.csr_matrix` (for tests/backends)."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.data.copy(), self.indices.copy(), self.indptr.copy()),
            shape=self.shape,
        )

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def matvec(self, x) -> np.ndarray:
        """Sparse matrix-vector product ``A @ x`` (vectorised reduceat)."""
        xv = np.asarray(x, dtype=np.float64)
        require(xv.shape == (self.ncols,),
                f"matvec operand must have shape ({self.ncols},), got {xv.shape}")
        y = np.zeros(self.nrows, dtype=np.float64)
        if self.nnz == 0:
            return y
        contrib = self.data * xv[self.indices]
        counts = np.diff(self.indptr)
        nonempty = counts > 0
        starts = self.indptr[:-1][nonempty]
        y[nonempty] = np.add.reduceat(contrib, starts)
        return y

    def rmatvec(self, x) -> np.ndarray:
        """Transpose product ``A.T @ x`` without materialising A.T."""
        xv = np.asarray(x, dtype=np.float64)
        require(xv.shape == (self.nrows,),
                f"rmatvec operand must have shape ({self.nrows},), got {xv.shape}")
        y = np.zeros(self.ncols, dtype=np.float64)
        if self.nnz == 0:
            return y
        rows = np.repeat(np.arange(self.nrows), np.diff(self.indptr))
        np.add.at(y, self.indices, self.data * xv[rows])
        return y

    def __matmul__(self, x):
        if isinstance(x, CsrMatrix):
            return self.matmat(x)
        return self.matvec(x)

    def matmat(self, other: "CsrMatrix") -> "CsrMatrix":
        """Sparse-sparse product (used by the multilevel partitioner).

        Implemented row-wise via scatter into a dense workspace of the
        output row; adequate for the moderate sizes this library handles.
        """
        require(self.ncols == other.nrows,
                f"matmat dimension mismatch: {self.shape} @ {other.shape}")
        n_out_cols = other.ncols
        work = np.zeros(n_out_cols, dtype=np.float64)
        rows_out: list[np.ndarray] = []
        cols_out: list[np.ndarray] = []
        vals_out: list[np.ndarray] = []
        for i in range(self.nrows):
            lo, hi = self.indptr[i], self.indptr[i + 1]
            if lo == hi:
                continue
            touched: list[np.ndarray] = []
            for k, v in zip(self.indices[lo:hi], self.data[lo:hi]):
                lo2, hi2 = other.indptr[k], other.indptr[k + 1]
                cols = other.indices[lo2:hi2]
                work[cols] += v * other.data[lo2:hi2]
                touched.append(cols)
            if not touched:
                continue
            cols = np.unique(np.concatenate(touched))
            vals = work[cols]
            work[cols] = 0.0
            nz = vals != 0.0
            cols, vals = cols[nz], vals[nz]
            rows_out.append(np.full(cols.size, i, dtype=np.int64))
            cols_out.append(cols)
            vals_out.append(vals)
        if not rows_out:
            return CsrMatrix.zeros((self.nrows, n_out_cols))
        return CsrMatrix.from_coo(
            np.concatenate(rows_out), np.concatenate(cols_out),
            np.concatenate(vals_out), (self.nrows, n_out_cols))

    def transpose(self) -> "CsrMatrix":
        """Return the transpose as a new CSR matrix."""
        rows = np.repeat(np.arange(self.nrows, dtype=np.int64),
                         np.diff(self.indptr))
        return CsrMatrix.from_coo(self.indices, rows, self.data,
                                  (self.ncols, self.nrows))

    @property
    def T(self) -> "CsrMatrix":
        return self.transpose()

    def scaled(self, alpha: float) -> "CsrMatrix":
        """Return ``alpha * A``."""
        return CsrMatrix(self.data * float(alpha), self.indices.copy(),
                         self.indptr.copy(), self.shape, _trusted=True)

    def add(self, other: "CsrMatrix") -> "CsrMatrix":
        """Return ``A + B`` (shapes must match)."""
        require(self.shape == other.shape,
                f"add shape mismatch: {self.shape} vs {other.shape}")
        rows_a = np.repeat(np.arange(self.nrows, dtype=np.int64),
                           np.diff(self.indptr))
        rows_b = np.repeat(np.arange(other.nrows, dtype=np.int64),
                           np.diff(other.indptr))
        return CsrMatrix.from_coo(
            np.concatenate([rows_a, rows_b]),
            np.concatenate([self.indices, other.indices]),
            np.concatenate([self.data, other.data]),
            self.shape,
        )

    def add_diagonal(self, vec) -> "CsrMatrix":
        """Return ``A + diag(vec)`` without densifying.

        When every diagonal entry is already stored (true for the
        Laplacian-stamped subdomain systems this library assembles)
        the update is a pure value edit on a copied ``data`` array;
        otherwise it falls back to a structural :meth:`add`.
        """
        n = min(self.shape)
        v = np.asarray(vec, dtype=np.float64)
        require(v.shape == (n,),
                f"add_diagonal expects a length-{n} vector, got {v.shape}")
        rows = np.repeat(np.arange(self.nrows, dtype=np.int64),
                         np.diff(self.indptr))
        diag_pos = np.flatnonzero((rows == self.indices) & (rows < n))
        if diag_pos.size == n:
            data = self.data.copy()
            data[diag_pos] += v  # diag_pos[i] is row i's diagonal slot
            return CsrMatrix(data, self.indices.copy(),
                             self.indptr.copy(), self.shape,
                             _trusted=True)
        idx = np.arange(n, dtype=np.int64)
        return self.add(CsrMatrix.from_coo(idx, idx, v, self.shape))

    # ------------------------------------------------------------------
    # structure queries and extraction
    # ------------------------------------------------------------------
    def diagonal(self) -> np.ndarray:
        """Main diagonal as a dense vector (zeros where unstored)."""
        n = min(self.shape)
        d = np.zeros(n, dtype=np.float64)
        for i in range(n):
            lo, hi = self.indptr[i], self.indptr[i + 1]
            pos = np.searchsorted(self.indices[lo:hi], i)
            if pos < hi - lo and self.indices[lo + pos] == i:
                d[i] = self.data[lo + pos]
        return d

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Column indices and values of row *i* (views, do not mutate)."""
        require(0 <= i < self.nrows, f"row index {i} out of range")
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def get(self, i: int, j: int) -> float:
        """Entry (i, j), zero if unstored."""
        cols, vals = self.row(i)
        pos = np.searchsorted(cols, j)
        if pos < cols.size and cols[pos] == j:
            return float(vals[pos])
        return 0.0

    def submatrix(self, row_idx, col_idx) -> "CsrMatrix":
        """Extract ``A[row_idx][:, col_idx]`` (indices need not be sorted)."""
        rsel = require_index_array(row_idx, "row_idx", upper=self.nrows)
        csel = require_index_array(col_idx, "col_idx", upper=self.ncols)
        colmap = np.full(self.ncols, -1, dtype=np.int64)
        colmap[csel] = np.arange(csel.size)
        out_rows: list[np.ndarray] = []
        out_cols: list[np.ndarray] = []
        out_vals: list[np.ndarray] = []
        for new_i, i in enumerate(rsel):
            lo, hi = self.indptr[i], self.indptr[i + 1]
            cols = colmap[self.indices[lo:hi]]
            keep = cols >= 0
            if not np.any(keep):
                continue
            out_rows.append(np.full(int(keep.sum()), new_i, dtype=np.int64))
            out_cols.append(cols[keep])
            out_vals.append(self.data[lo:hi][keep])
        if not out_rows:
            return CsrMatrix.zeros((rsel.size, csel.size))
        return CsrMatrix.from_coo(
            np.concatenate(out_rows), np.concatenate(out_cols),
            np.concatenate(out_vals), (rsel.size, csel.size))

    def permuted(self, perm) -> "CsrMatrix":
        """Symmetric permutation ``A[perm][:, perm]`` (square matrices)."""
        require(self.nrows == self.ncols, "permuted requires a square matrix")
        return self.submatrix(perm, perm)

    def is_symmetric(self, rtol: float = 1e-10) -> bool:
        """Check structural+numerical symmetry within relative tolerance."""
        if self.nrows != self.ncols:
            return False
        t = self.transpose()
        if not (np.array_equal(t.indptr, self.indptr)
                and np.array_equal(t.indices, self.indices)):
            return False
        scale = float(np.max(np.abs(self.data))) if self.nnz else 0.0
        if scale == 0.0:
            return True
        return bool(np.max(np.abs(t.data - self.data)) <= rtol * scale)

    def row_nnz(self) -> np.ndarray:
        """Number of stored entries per row."""
        return np.diff(self.indptr)

    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """COO view ``(rows, cols, vals)`` of the stored entries."""
        rows = np.repeat(np.arange(self.nrows, dtype=np.int64),
                         np.diff(self.indptr))
        return rows, self.indices.copy(), self.data.copy()

    def offdiag_abs_row_sums(self) -> np.ndarray:
        """Per-row sum of |a_ij| over j != i (diagonal-dominance check)."""
        rows, cols, vals = self.triplets()
        off = rows != cols
        out = np.zeros(self.nrows, dtype=np.float64)
        np.add.at(out, rows[off], np.abs(vals[off]))
        return out


def _canonicalise_rows(data: np.ndarray, indices: np.ndarray,
                       indptr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort column indices within each row and verify no duplicates."""
    for i in range(indptr.size - 1):
        lo, hi = indptr[i], indptr[i + 1]
        if hi - lo <= 1:
            continue
        seg = indices[lo:hi]
        if not np.all(seg[1:] > seg[:-1]):
            order = np.argsort(seg, kind="stable")
            seg_sorted = seg[order]
            if np.any(seg_sorted[1:] == seg_sorted[:-1]):
                raise ValidationError(
                    f"duplicate column index in row {i}; use from_coo to "
                    "sum duplicates")
            indices[lo:hi] = seg_sorted
            data[lo:hi] = data[lo:hi][order]
    return data, indices


def laplacian_like(rows: Iterable[int], cols: Iterable[int],
                   weights: Iterable[float], n: int,
                   diagonal_boost: float = 0.0) -> CsrMatrix:
    """Assemble a weighted-graph Laplacian plus optional diagonal boost.

    Each undirected edge (i, j, w) contributes ``+w`` to both diagonal
    entries and ``-w`` to the two off-diagonal positions — the standard
    resistor-network stamp the paper's electric graphs are built from.
    """
    r = np.asarray(list(rows), dtype=np.int64)
    c = np.asarray(list(cols), dtype=np.int64)
    w = np.asarray(list(weights), dtype=np.float64)
    require(r.size == c.size == w.size, "edge arrays must have equal length")
    require(not np.any(r == c), "laplacian_like: self-loops not allowed")
    all_rows = np.concatenate([r, c, r, c])
    all_cols = np.concatenate([c, r, r, c])
    all_vals = np.concatenate([-w, -w, w, w])
    mat = CsrMatrix.from_coo(all_rows, all_cols, all_vals, (n, n))
    if diagonal_boost:
        boost = CsrMatrix.identity(n).scaled(diagonal_boost)
        mat = mat.add(boost)
    return mat
