"""Tests for the CSR record (scipy and dense arrays as oracles)."""

import copy
import pickle

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.linalg.sparse import CsrMatrix, forbid_densify, is_symmetric


def random_dense(rng, n, m, density=0.3):
    a = rng.standard_normal((n, m))
    a[rng.random((n, m)) > density] = 0.0
    return a


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
def test_from_coo_sums_duplicates():
    m = CsrMatrix.from_coo([0, 0, 1], [1, 1, 0], [2.0, 3.0, 4.0], (2, 2))
    assert m.nnz == 2
    assert np.array_equal(m.to_dense(), [[0.0, 5.0], [4.0, 0.0]])


def test_from_coo_validates_lengths_and_bounds():
    with pytest.raises(ValidationError):
        CsrMatrix.from_coo([0], [0, 1], [1.0, 2.0], (2, 2))
    with pytest.raises(ValidationError):
        CsrMatrix.from_coo([2], [0], [1.0], (2, 2))
    with pytest.raises(ValidationError, match="rows"):
        CsrMatrix.from_coo([-1], [0], [1.0], (2, 2))
    with pytest.raises(ValidationError, match="cols"):
        CsrMatrix.from_coo([0], [-1], [1.0], (2, 2))


@pytest.mark.parametrize("shape", [(1, 0), (0, 0)])
def test_from_coo_bounds_indices_by_the_true_shape(shape):
    # an entry has no place in a matrix with no columns (or no rows):
    # it is rejected, not stored out of range or silently dropped
    with pytest.raises(ValidationError):
        CsrMatrix.from_coo([0], [0], [1.0], shape)
    empty = CsrMatrix.from_coo([], [], [], shape)
    assert empty.shape == shape and empty.nnz == 0
    assert empty.to_dense().shape == shape


def test_from_dense_round_trip():
    rng = np.random.default_rng(0)
    a = random_dense(rng, 7, 5)
    m = CsrMatrix.from_dense(a)
    assert np.array_equal(m.to_dense(), a)


def test_from_dense_tolerance_drops_small():
    a = np.array([[1.0, 1e-14], [0.0, 2.0]])
    m = CsrMatrix.from_dense(a, tol=1e-12)
    assert m.nnz == 2


@pytest.mark.parametrize("shape", [(3,), (2, 2, 2)])
def test_from_dense_rejects_non_matrices(shape):
    with pytest.raises(ValidationError, match="2-D"):
        CsrMatrix.from_dense(np.ones(shape))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 10), st.integers(1, 10), st.integers(0, 2**31 - 1))
def test_property_from_coo_agrees_with_scipy(n, m, seed):
    # random triplets with repeats, in random order: duplicates are
    # summed and every row comes out sorted and unique
    rng = np.random.default_rng(seed)
    k = int(rng.integers(0, 3 * n * m))
    r, c = rng.integers(0, n, k), rng.integers(0, m, k)
    v = rng.standard_normal(k)
    ours = CsrMatrix.from_coo(r, c, v, (n, m))
    theirs = sp.coo_matrix((v, (r, c)), shape=(n, m)).tocsr()
    theirs.sum_duplicates()
    assert np.array_equal(ours.indptr, theirs.indptr)
    assert np.array_equal(ours.indices, theirs.indices)
    assert np.allclose(ours.data, theirs.data, rtol=0.0, atol=1e-12)


def test_zeros():
    z = CsrMatrix.zeros((3, 4))
    assert z.nnz == 0 and z.shape == (3, 4)
    assert np.array_equal(z.matvec(np.ones(4)), np.zeros(3))
    assert np.array_equal(z.to_dense(), np.zeros((3, 4)))


def test_raw_constructor_validates():
    with pytest.raises(ValidationError, match="column indices"):
        CsrMatrix(np.ones(1), np.array([5]), np.array([0, 1]), (1, 2))
    with pytest.raises(ValidationError, match="column indices"):
        CsrMatrix(np.ones(1), np.array([-1]), np.array([0, 1]), (1, 2))
    with pytest.raises(ValidationError):
        CsrMatrix(np.ones(2), np.array([0, 1]), np.array([0, 1]), (1, 2))


@pytest.mark.parametrize(
    "indptr, match",
    [
        ([0, 1], "length"),  # one row short
        ([1, 2, 2], "start at 0"),
        ([0, 2, 1], "end at nnz"),
        ([0, 3, 2], "non-decreasing"),
        ([0, 10**12, 2], "non-decreasing"),  # would size a huge row map
        ([0, -5, 2], "non-decreasing"),
    ],
)
def test_raw_constructor_rejects_bad_indptr(indptr, match):
    # wire input: indptr is checked before any row map is sized by it
    with pytest.raises(ValidationError, match=match):
        CsrMatrix(np.ones(2), np.array([0, 1]), np.array(indptr), (2, 2))


@pytest.mark.parametrize(
    "data, indices, indptr, shape, match",
    [
        ([], [], [0], (-1, 2), "non-negative"),
        ([1.0, 2.0], [[0, 1]], [0, 2], (1, 2), "1-D"),
        ([[1.0, 2.0]], [0, 1], [0, 2], (1, 2), "length mismatch"),
        ([1.0], [0], [[0, 1]], (1, 2), "length"),
    ],
)
def test_raw_constructor_rejects_bad_arrays(
    data, indices, indptr, shape, match
):
    with pytest.raises(ValidationError, match=match):
        CsrMatrix(np.array(data), np.array(indices), np.array(indptr), shape)


@pytest.mark.parametrize(
    "indptr, indices, dense",
    [
        # a column falling across a row boundary is not out of order
        ([0, 1, 2], [2, 0], [[0, 0, 1], [2, 0, 0]]),
        ([0, 0, 1, 2, 2], [2, 0], [[0, 0, 0], [0, 0, 1], [2, 0, 0], [0] * 3]),
        # empty rows around an unsorted row: the row is still sorted
        ([0, 0, 2, 2], [2, 0], [[0, 0, 0], [2, 0, 1], [0, 0, 0]]),
    ],
)
def test_raw_constructor_finds_row_boundaries(indptr, indices, dense):
    m = CsrMatrix(np.array([1.0, 2.0]), indices, indptr, np.shape(dense))
    assert np.array_equal(m.to_dense(), dense)
    ref = CsrMatrix.from_dense(dense)
    assert np.array_equal(m.indices, ref.indices)
    assert np.array_equal(m.data, ref.data)


def test_raw_constructor_sorts_columns():
    m = CsrMatrix(
        np.array([2.0, 1.0]), np.array([1, 0]), np.array([0, 2]), (1, 2)
    )
    assert np.array_equal(m.indices, [0, 1])
    assert np.array_equal(m.data, [1.0, 2.0])


def test_raw_constructor_rejects_duplicate_columns():
    with pytest.raises(ValidationError, match="duplicate"):
        CsrMatrix(
            np.array([1.0, 2.0]), np.array([1, 1]), np.array([0, 2]), (1, 2)
        )


def test_raw_constructor_leaves_its_inputs_alone():
    data, indices = np.array([2.0, 1.0]), np.array([1, 0])
    CsrMatrix(data, indices, np.array([0, 2]), (1, 2))
    assert np.array_equal(indices, [1, 0]) and np.array_equal(data, [2.0, 1.0])


def _shuffled_rows(rng, data, indices, indptr):
    """The CSR arrays with each row's entries in random order."""
    order = np.arange(indices.size)
    for lo, hi in zip(indptr[:-1], indptr[1:]):
        order[lo:hi] = lo + rng.permutation(hi - lo)
    return data[order], indices[order], indptr


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**31 - 1))
def test_property_constructor_canonicalises_shuffled_rows(n, m, seed):
    rng = np.random.default_rng(seed)
    ref = CsrMatrix.from_dense(random_dense(rng, n, m, density=0.5))
    arrays = (ref.data, ref.indices, ref.indptr)
    for data, indices, indptr in (arrays, _shuffled_rows(rng, *arrays)):
        got = CsrMatrix(data, indices, indptr, ref.shape)
        assert np.array_equal(got.indptr, ref.indptr)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.data, ref.data)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.integers(2, 10), st.integers(0, 2**31 - 1))
def test_property_constructor_names_the_row_of_a_duplicate(n, m, seed):
    rng = np.random.default_rng(seed)
    a = random_dense(rng, n, m, density=0.5)
    row = int(rng.integers(n))
    a[row, rng.permutation(m)[:2]] = 1.0  # at least two entries in the row
    ref = CsrMatrix.from_dense(a)
    indices = ref.indices.copy()
    lo = ref.indptr[row]
    indices[lo + 1] = indices[lo]  # repeat the row's first column
    arrays = (ref.data, indices, ref.indptr)
    for data, idx, indptr in (arrays, _shuffled_rows(rng, *arrays)):
        with pytest.raises(ValidationError, match=f"in row {row};"):
            CsrMatrix(data, idx, indptr, ref.shape)


def test_record_is_frozen():
    m = CsrMatrix.from_dense(np.eye(2))
    with pytest.raises(AttributeError, match="frozen"):
        m.data = np.zeros(2)
    with pytest.raises(AttributeError, match="frozen"):
        del m.shape


def test_record_pickles_and_copies():
    m = CsrMatrix.from_dense(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    copies = (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m))
    for other in copies:
        assert type(other) is CsrMatrix and other.shape == m.shape
        for name in CsrMatrix.__slots__[:3]:
            assert np.array_equal(getattr(other, name), getattr(m, name))


def test_to_scipy_shares_the_arrays_read_only():
    rng = np.random.default_rng(1)
    a = random_dense(rng, 6, 6)
    ours = CsrMatrix.from_dense(a)
    theirs = ours.to_scipy()
    assert isinstance(theirs, sp.csr_matrix) and theirs.shape == ours.shape
    for name in CsrMatrix.__slots__[:3]:
        assert np.shares_memory(getattr(theirs, name), getattr(ours, name))
    assert np.array_equal(theirs.toarray(), a)
    x = rng.standard_normal(6)
    assert np.allclose(theirs @ x, ours.matvec(x))
    # an in-place edit raises instead of changing the record; a copy
    # is free to change
    with pytest.raises(ValueError, match="read-only"):
        theirs.data *= 2.0
    with pytest.raises(ValueError, match="read-only"):
        CsrMatrix.from_dense(np.eye(3)).to_scipy().setdiag(7.0)
    edited = theirs.copy()
    edited.data *= 2.0
    assert np.array_equal(ours.to_dense(), a)


# ----------------------------------------------------------------------
# matvec
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(4))
def test_matvec_matches_dense(seed):
    rng = np.random.default_rng(seed)
    a = random_dense(rng, 11, 8, density=0.25)
    x = rng.standard_normal(8)
    m = CsrMatrix.from_dense(a)
    assert np.allclose(m.matvec(x), a @ x)


def test_matvec_empty_rows():
    a = np.zeros((4, 3))
    a[1, 2] = 5.0
    m = CsrMatrix.from_dense(a)
    y = m.matvec(np.array([1.0, 1.0, 2.0]))
    assert np.array_equal(y, [0.0, 10.0, 0.0, 0.0])


def test_matvec_shape_check():
    m = CsrMatrix.from_dense(np.eye(3))
    with pytest.raises(ValidationError):
        m.matvec(np.ones(4))


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_matvec_and_to_dense_on_empty_shapes(shape):
    m = CsrMatrix.zeros(shape)
    assert np.array_equal(m.matvec(np.ones(shape[1])), np.zeros(shape[0]))
    assert m.to_dense().shape == shape
    assert m.to_scipy().shape == shape


# ----------------------------------------------------------------------
# symmetry
# ----------------------------------------------------------------------
def test_is_symmetric():
    a = np.array([[2.0, -1.0], [-1.0, 2.0]])
    assert is_symmetric(CsrMatrix.from_dense(a))
    upper = np.array([[1.0, 2.0], [0.0, 1.0]])
    assert not is_symmetric(CsrMatrix.from_dense(upper))
    assert not is_symmetric(CsrMatrix.zeros((2, 3)))
    assert is_symmetric(CsrMatrix.zeros((3, 3)))


def test_is_symmetric_tolerance_is_relative_to_the_largest_entry():
    a = np.array([[1e3, 1.0], [1.0 + 1e-8, 1e3]])
    assert is_symmetric(CsrMatrix.from_dense(a))
    assert not is_symmetric(CsrMatrix.from_dense(a), rtol=1e-13)


def test_is_symmetric_needs_a_symmetric_pattern():
    # equal values, but (0, 1) is stored as an explicit zero and (1, 0)
    # is not stored at all
    m = CsrMatrix(np.array([1.0, 0.0, 1.0]), [0, 1, 1], [0, 2, 3], (2, 2))
    assert not is_symmetric(m)


# ----------------------------------------------------------------------
# property-based round trips
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**31 - 1))
def test_property_dense_round_trip_and_matvec(n, m, seed):
    rng = np.random.default_rng(seed)
    a = random_dense(rng, n, m, density=0.4)
    mat = CsrMatrix.from_dense(a)
    assert np.array_equal(mat.to_dense(), a)
    x = rng.standard_normal(m)
    assert np.allclose(mat.matvec(x), a @ x, atol=1e-12)
    assert np.array_equal(mat.to_scipy().toarray(), a)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 2**31 - 1))
def test_property_from_dense_is_canonical(n, m, seed):
    # from_dense must produce canonical CSR by construction: sorted,
    # duplicate-free column indices and no stored entry below the
    # drop tolerance
    rng = np.random.default_rng(seed)
    a = random_dense(rng, n, m, density=0.4)
    mat = CsrMatrix.from_dense(a)
    assert mat.indptr[0] == 0 and mat.indptr[-1] == mat.nnz
    assert np.all(np.diff(mat.indptr) >= 0)
    for i in range(n):
        cols = mat.indices[mat.indptr[i] : mat.indptr[i + 1]]
        assert np.all(np.diff(cols) > 0)  # strictly ascending => unique
    assert np.all(mat.data != 0.0)
    assert np.array_equal(mat.to_dense(), a)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.integers(0, 2**31 - 1))
def test_property_is_symmetric_agrees_with_scipy(n, seed):
    rng = np.random.default_rng(seed)
    a = random_dense(rng, n, n, density=0.5)
    for cand in (a, a + a.T):
        mat = CsrMatrix.from_dense(cand)
        s = mat.to_scipy()
        expected = (s != s.T).nnz == 0
        assert is_symmetric(mat, rtol=0.0) == expected


# ----------------------------------------------------------------------
# forbid_densify guard
# ----------------------------------------------------------------------
def test_forbid_densify_blocks_to_dense():
    m = CsrMatrix.from_dense(np.eye(3))
    with forbid_densify("unit test"):
        with pytest.raises(ValidationError, match="unit test"):
            m.to_dense()
    # the guard is scoped: densification works again outside
    assert np.array_equal(m.to_dense(), np.eye(3))


def test_forbid_densify_nests():
    m = CsrMatrix.from_dense(np.eye(2))
    with forbid_densify("outer"):
        with forbid_densify("inner"):
            with pytest.raises(ValidationError, match="inner"):
                m.to_dense()
        with pytest.raises(ValidationError, match="outer"):
            m.to_dense()
    m.to_dense()
