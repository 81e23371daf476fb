"""Sparse matrices: a validated CSR record; scipy does the arithmetic.

:class:`CsrMatrix` is a frozen ``(data, indices, indptr, shape)`` record
whose rows hold sorted, unique column indices.  It validates, builds and
multiplies (the residual probe's ``matvec``) on numpy alone, so clients
and workers never load scipy.  Every other operation is a
:mod:`scipy.sparse` call on :meth:`CsrMatrix.to_scipy`, imported inside
the function that needs it.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from ..errors import ValidationError
from ..utils.validation import require, require_index_array

#: active :func:`forbid_densify` scopes (innermost last); non-empty
#: makes :meth:`CsrMatrix.to_dense` raise instead of materialising
_DENSIFY_FORBIDDEN: list[str] = []


@contextmanager
def forbid_densify(reason: str = "densification is forbidden here"):
    """Make any :meth:`CsrMatrix.to_dense` inside the block raise.

    Tests wrap a whole sparse plan build and reference-free solve in it
    to prove no matrix is ever materialised dense.  Scopes nest; it is a
    main-thread test hook, not a synchronisation primitive.
    """
    _DENSIFY_FORBIDDEN.append(reason)
    try:
        yield
    finally:
        _DENSIFY_FORBIDDEN.pop()


class CsrMatrix:
    """Immutable CSR matrix (float64 values, int64 indices).

    The constructor validates raw CSR arrays, which may come off the
    wire, and sorts each row's columns; :meth:`from_coo`,
    :meth:`from_dense` and :meth:`zeros` build canonical arrays.
    """

    __slots__ = ("data", "indices", "indptr", "shape")
    data: np.ndarray  # the nnz values, row by row
    indices: np.ndarray  # each value's column, sorted within its row
    indptr: np.ndarray  # row i holds entries indptr[i]:indptr[i + 1]
    shape: tuple[int, int]

    def __init__(self, data, indices, indptr, shape, *, _trusted=False):
        nrows, ncols = int(shape[0]), int(shape[1])
        require(nrows >= 0 and ncols >= 0, "shape must be non-negative")
        data = np.ascontiguousarray(data, dtype=np.float64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        if not _trusted:
            data, indices = _validated(data, indices, indptr, nrows, ncols)
        fields = (data, indices, indptr, (nrows, ncols))
        for name, value in zip(self.__slots__, fields):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"CsrMatrix is frozen; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"CsrMatrix is frozen; cannot delete {name!r}")

    def __setstate__(self, state) -> None:
        # a slotted object pickles as ``(None, {slot: value})``
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_coo(cls, rows, cols, vals, shape: tuple[int, int]) -> "CsrMatrix":
        """Build from coordinate triplets; duplicates are summed."""
        nrows, ncols = int(shape[0]), int(shape[1])
        r = require_index_array(rows, "rows", upper=nrows)
        c = require_index_array(cols, "cols", upper=ncols)
        v = np.asarray(vals, dtype=np.float64)
        require(r.size == c.size == v.size, "rows/cols/vals length mismatch")
        order = np.lexsort((c, r))
        r, c, v = r[order], c[order], v[order]
        # collapse duplicates, summing each group's values in order
        keep = np.ones(r.size, dtype=bool)
        keep[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        vv = np.bincount(np.cumsum(keep) - 1, weights=v)
        indptr = np.zeros(nrows + 1, dtype=np.int64)
        np.cumsum(np.bincount(r[keep], minlength=nrows), out=indptr[1:])
        return cls(vv, c[keep], indptr, (nrows, ncols), _trusted=True)

    @classmethod
    def from_dense(cls, a, *, tol: float = 0.0) -> "CsrMatrix":
        """Build from a dense array, dropping entries with |a_ij| <= tol.

        A row-major scan yields sorted, unique columns: no sort needed.
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
        indptr = np.zeros(int(shape[0]) + 1, dtype=np.int64)
        empty = np.empty(0, dtype=np.int64)
        return cls(np.empty(0), empty, indptr, shape, _trusted=True)

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

    def matvec(self, x) -> np.ndarray:
        """Sparse matrix-vector product ``A @ x`` (vectorised reduceat)."""
        xv = np.asarray(x, dtype=np.float64)
        require(
            xv.shape == (self.ncols,),
            f"matvec operand must have shape ({self.ncols},), got {xv.shape}",
        )
        y = np.zeros(self.nrows, dtype=np.float64)
        if self.nnz == 0:
            return y
        contrib = self.data * xv[self.indices]
        nonempty = np.diff(self.indptr) > 0
        y[nonempty] = np.add.reduceat(contrib, self.indptr[:-1][nonempty])
        return y

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense float64 array."""
        if _DENSIFY_FORBIDDEN:
            raise ValidationError(
                f"CsrMatrix{self.shape} densified inside a "
                f"forbid_densify scope: {_DENSIFY_FORBIDDEN[-1]}"
            )
        out = np.zeros(self.shape, dtype=np.float64)
        rows = np.repeat(np.arange(self.nrows), np.diff(self.indptr))
        out[rows, self.indices] = self.data
        return out

    def to_scipy(self):
        """A :class:`scipy.sparse.csr_matrix` over this record's arrays.

        Nothing is copied: the result holds read-only views, so an
        in-place edit raises instead of changing the record (``.copy()``
        it first).  scipy's own constructor would copy the indices down
        to int32; the views are attached to an empty matrix instead.
        """
        import scipy.sparse as sp

        views = [a.view() for a in (self.data, self.indices, self.indptr)]
        for view in views:
            view.flags.writeable = False
        out = sp.csr_matrix(self.shape)
        out.data, out.indices, out.indptr = views
        out.has_canonical_format = True
        return out


def is_symmetric(a: CsrMatrix, rtol: float = 1e-10) -> bool:
    """Whether *a* equals its transpose: the same stored pattern, and
    values within ``rtol`` times the largest stored magnitude."""
    if a.nrows != a.ncols:
        return False
    t = a.to_scipy().T.tocsr()  # the transpose comes out row-sorted
    same_rows = np.array_equal(t.indptr, a.indptr)
    if not (same_rows and np.array_equal(t.indices, a.indices)):
        return False
    scale = float(np.max(np.abs(a.data), initial=0.0))
    return bool(np.max(np.abs(t.data - a.data), initial=0.0) <= rtol * scale)


def _validated(data, indices, indptr, nrows: int, ncols: int):
    """Check raw CSR arrays; return ``(data, indices)`` rows sorted.

    ``indptr`` is proven sound before anything is sized by it.  One
    lexsort sorts the rows, only when some row is out of order.
    """
    require(
        indptr.ndim == 1 and indptr.size == nrows + 1,
        f"indptr must have length nrows+1={nrows + 1}",
    )
    require(
        indptr[0] == 0 and indptr[-1] == data.size,
        "indptr must start at 0 and end at nnz",
    )
    require(np.all(np.diff(indptr) >= 0), "indptr must be non-decreasing")
    require_index_array(indices, "column indices", upper=ncols)
    require(data.shape == indices.shape, "data/indices length mismatch")
    # a column that does not rise inside a row is unsorted or repeated
    falls = indices[1:] <= indices[:-1]
    starts = indptr[1:-1]
    falls[starts[(starts > 0) & (starts < indices.size)] - 1] = False
    if not falls.any():
        return data, indices
    rows = np.repeat(np.arange(nrows, dtype=np.int64), np.diff(indptr))
    order = np.lexsort((indices, rows))
    data, indices = data[order], indices[order]
    repeated = (indices[1:] == indices[:-1]) & (rows[1:] == rows[:-1])
    if repeated.any():
        raise ValidationError(
            f"duplicate column index in row {rows[1:][repeated][0]}; use "
            "from_coo to sum duplicates"
        )
    return data, indices
