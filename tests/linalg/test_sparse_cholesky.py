"""Sparse LDLᵀ factorization (SuperLU) against the dense oracle."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NotSpdError, SingularMatrixError, ValidationError
from repro.graph.electric import ElectricGraph
from repro.linalg import CsrMatrix, SparseSpdFactor, factor_sparse_spd
from repro.workloads.poisson import grid2d_poisson


def random_spd_csr(n, seed, extra_edges=4, boost=1.0):
    """A sparse SPD matrix: graph Laplacian + diagonal boost."""
    rng = np.random.default_rng(seed)
    rows = list(range(n - 1)) + list(rng.integers(0, n, extra_edges * n))
    cols = list(range(1, n)) + list(rng.integers(0, n, extra_edges * n))
    vals = []
    r2, c2 = [], []
    for r, c in zip(rows, cols):
        if r == c:
            continue
        r2.append(int(r))
        c2.append(int(c))
        vals.append(float(np.abs(rng.normal()) + 0.05))
    coo_r = r2 + c2 + list(range(n))
    coo_c = c2 + r2 + list(range(n))
    coo_v = [-v for v in vals] * 2 + [0.0] * n
    m = CsrMatrix.from_coo(coo_r, coo_c, coo_v, (n, n))
    diag = -m.to_dense().sum(axis=1) + boost
    return CsrMatrix.from_dense(m.to_dense() + np.diag(diag))


@pytest.mark.parametrize("n", [1, 7, 30, 120])
def test_solve_matches_dense_oracle(n):
    a = random_spd_csr(n, seed=n)
    dense = a.to_dense()
    f = factor_sparse_spd(a)
    rng = np.random.default_rng(1)
    b = rng.standard_normal(n)
    x = f.solve(b)
    assert np.max(np.abs(x - np.linalg.solve(dense, b))) <= 1e-10 * max(
        1.0, np.max(np.abs(x)))
    # the factorization really solved the original system
    assert np.max(np.abs(dense @ x - b)) <= 1e-8
    assert f.is_spd
    assert f.inertia() == (n, 0, 0)


def test_ordering_cuts_fill_on_poisson_block():
    # the minimum-degree ordering SuperLU applies must keep paying for
    # itself: a banded natural-order factor of a 40x40 grid fills far
    # more than the ordered one
    from scipy.sparse.linalg import splu

    a, _b = grid2d_poisson(40).to_system()
    f = factor_sparse_spd(a)
    natural = splu(a.to_scipy().tocsc(), permc_spec="NATURAL",
                   diag_pivot_thresh=0.0,
                   options=dict(Equil=False, SymmetricMode=True))
    assert f._lu.L.nnz < natural.L.nnz / 2


def test_block_solve_bitwise_equals_per_column():
    a = random_spd_csr(25, seed=9)
    f = factor_sparse_spd(a)
    rng = np.random.default_rng(2)
    B = rng.standard_normal((25, 6))
    X = f.solve(B)
    assert X.shape == (25, 6)
    for j in range(6):
        assert np.array_equal(X[:, j], f.solve(B[:, j]))


def test_logdet_matches_dense():
    a = random_spd_csr(30, seed=5)
    f = factor_sparse_spd(a)
    _sign, expected = np.linalg.slogdet(a.to_dense())
    assert abs(f.logdet() - expected) <= 1e-8 * max(1.0, abs(expected))


def test_not_spd_raises():
    dense = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
    with pytest.raises(NotSpdError):
        factor_sparse_spd(CsrMatrix.from_dense(dense))


def test_allow_indefinite_keeps_factor():
    dense = np.array([[1.0, 2.0], [2.0, 1.0]])
    f = factor_sparse_spd(CsrMatrix.from_dense(dense),
                          allow_indefinite=True)
    assert not f.is_spd
    assert f.inertia() == (1, 0, 1)
    assert np.isnan(f.logdet())
    b = np.array([1.0, 0.0])
    assert np.max(np.abs(dense @ f.solve(b) - b)) <= 1e-12


@pytest.mark.parametrize("dense, match", [
    ([[1.0, 1.0], [1.0, 1.0]], "singular"),
    # nonsingular, but a zero diagonal pivot: SuperLU would have to
    # leave the diagonal, which symmetric LDL^T cannot
    ([[0.0, 1.0], [1.0, 0.0]], "zero pivot on the diagonal of row"),
], ids=["singular", "zero-diagonal"])
def test_singular_raises(dense, match):
    with pytest.raises(SingularMatrixError, match=match):
        factor_sparse_spd(CsrMatrix.from_dense(np.array(dense)),
                          allow_indefinite=True)


def test_asymmetric_rejected_unless_unchecked():
    dense = np.array([[2.0, 1.0], [0.0, 2.0]])
    with pytest.raises(NotSpdError):
        factor_sparse_spd(CsrMatrix.from_dense(dense))


def test_pickle_roundtrip_solves_bitwise():
    a = random_spd_csr(35, seed=13)
    f = factor_sparse_spd(a)
    b = np.sin(np.arange(35, dtype=np.float64))
    x = f.solve(b)
    f2 = pickle.loads(pickle.dumps(f))
    assert isinstance(f2, SparseSpdFactor)
    assert f2._lu is None
    # identical matrix + identical library ⇒ identical bits, the
    # property the pooled plan build relies on
    assert np.array_equal(f2.solve(b), x)


def test_dense_input_accepted_for_parity():
    dense = np.array([[4.0, 1.0], [1.0, 3.0]])
    f = factor_sparse_spd(dense)
    assert np.max(np.abs(dense @ f.solve(np.ones(2)) - 1.0)) <= 1e-12


def test_rectangular_rejected():
    with pytest.raises(ValidationError, match="square"):
        factor_sparse_spd(CsrMatrix.from_dense(np.ones((2, 3))))


# ----------------------------------------------------------------------
# graph shapes the ordering must handle: SuperLU's minimum degree is the
# only ordering, so every structure that stresses an ordering (hubs,
# scrambled bands, several components, no edges at all) is factored
# through it and checked against the dense oracle
# ----------------------------------------------------------------------
def _graph_spd(n, edges, boost=0.5):
    """Unit-weight graph Laplacian plus *boost* on the diagonal."""
    degree = np.bincount(np.asarray(edges, dtype=int).ravel(), minlength=n)
    graph = ElectricGraph.from_edges(
        n, [(i, j, -1.0) for i, j in edges], degree + np.full(n, boost),
        np.zeros(n))
    return graph.to_matrix()


def _path(n=40):
    return _graph_spd(n, [(i, i + 1) for i in range(n - 1)])


def _shuffled_path(n=40):
    lab = np.random.default_rng(3).permutation(n)
    return _graph_spd(n, [(int(lab[i]), int(lab[i + 1]))
                          for i in range(n - 1)])


def _arrow_hub_first(n=30):
    # natural order eliminates the hub first and fills the whole matrix
    return _graph_spd(n, [(0, i) for i in range(1, n)])


def _star_hub_last(n=30):
    return _graph_spd(n, [(i, n - 1) for i in range(n - 1)])


def _poisson_grid():
    a, _b = grid2d_poisson(12).to_system()
    return a


def _disconnected():
    # two paths and an isolated vertex
    edges = [(i, i + 1) for i in range(9)]
    edges += [(i, i + 1) for i in range(10, 19)]
    return _graph_spd(21, edges)


def _diagonal(n=17):
    return CsrMatrix.from_dense(np.diag(np.linspace(0.5, 3.0, n)))


def _random_graph():
    return random_spd_csr(60, seed=21)


FAMILIES = {
    "path": _path,
    "shuffled-path": _shuffled_path,
    "arrow-hub-first": _arrow_hub_first,
    "star-hub-last": _star_hub_last,
    "poisson-grid": _poisson_grid,
    "disconnected": _disconnected,
    "diagonal": _diagonal,
    "random-graph": _random_graph,
}
family = pytest.mark.parametrize("make", list(FAMILIES.values()),
                                 ids=list(FAMILIES))


def _rhs(n, k=None):
    rng = np.random.default_rng(n)
    return rng.standard_normal(n if k is None else (n, k))


@family
def test_family_solves_like_dense_oracle(make):
    a = make()
    dense = a.to_dense()
    f = factor_sparse_spd(a)
    b = _rhs(a.nrows)
    x = f.solve(b)
    assert np.max(np.abs(x - np.linalg.solve(dense, b))) <= 1e-10 * max(
        1.0, np.max(np.abs(x)))
    assert np.max(np.abs(dense @ x - b)) <= 1e-8
    assert f.inertia() == (a.nrows, 0, 0)


@family
def test_family_pivots_stay_on_diagonal(make):
    # symmetric ordering, unit L, pivots on diag(U): the LDL^T reading
    # of the SuperLU factor that `d`, `inertia` and `logdet` rest on
    a = make()
    f = factor_sparse_spd(a)
    n = a.nrows
    assert np.array_equal(f._lu.perm_r, f._lu.perm_c)
    assert np.array_equal(np.sort(f._lu.perm_c), np.arange(n))
    assert np.array_equal(f._lu.L.diagonal(), np.ones(n))
    assert np.array_equal(f.d, f._lu.U.diagonal())
    _sign, expected = np.linalg.slogdet(a.to_dense())
    assert abs(f.logdet() - expected) <= 1e-8 * max(1.0, abs(expected))


@family
def test_family_answer_does_not_depend_on_input_order(make):
    # the successor of the old every-ordering-agrees check: scrambling
    # the unknowns before factoring changes SuperLU's elimination order
    # but not the solution
    a = make()
    n = a.nrows
    perm = np.random.default_rng(7).permutation(n)
    b = _rhs(n)
    x = factor_sparse_spd(a).solve(b)
    p = a.to_scipy()[perm][:, perm]
    ap = CsrMatrix(p.data, p.indices, p.indptr, p.shape)
    xp = factor_sparse_spd(ap).solve(b[perm])
    assert np.max(np.abs(xp - x[perm])) <= 1e-10 * max(
        1.0, np.max(np.abs(x)))


@family
def test_family_block_solve_bitwise_equals_per_column(make):
    a = make()
    f = factor_sparse_spd(a)
    B = _rhs(a.nrows, 4)
    X = f.solve(B)
    for j in range(4):
        assert np.array_equal(X[:, j], f.solve(B[:, j]))


@family
def test_family_pickle_roundtrip_solves_bitwise(make):
    a = make()
    f = factor_sparse_spd(a, check_symmetry=False)
    b = _rhs(a.nrows)
    x = f.solve(b)
    f2 = pickle.loads(pickle.dumps(f))
    assert f2._lu is None
    assert np.array_equal(f2.solve(b), x)
    assert np.array_equal(f2.d, f.d)


def _reconstruct(f):
    """``A`` rebuilt from the SuperLU factors: ``Prᵀ L U Pcᵀ``."""
    import scipy.sparse as sp

    lu, n = f._splu(), f.n
    pr = sp.csc_matrix((np.ones(n), (lu.perm_r, np.arange(n))),
                       shape=(n, n))
    pc = sp.csc_matrix((np.ones(n), (np.arange(n), lu.perm_c)),
                       shape=(n, n))
    return (pr.T @ (lu.L @ lu.U) @ pc.T).toarray()


@family
def test_family_factor_reconstructs_the_matrix(make):
    a = make()
    f = factor_sparse_spd(a)
    dense = a.to_dense()
    assert np.max(np.abs(_reconstruct(f) - dense)) <= 1e-12 * max(
        1.0, np.max(np.abs(dense)))


# ----------------------------------------------------------------------
# dense SPD inputs: the cases the removed dense Cholesky / LDLᵀ kernels
# were checked on, now held by the one factorization against numpy
# ----------------------------------------------------------------------
def random_dense_spd(rng, n, cond=10.0):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q * np.geomspace(1.0, cond, n)) @ q.T


@pytest.mark.parametrize("n", [1, 2, 3, 17, 48, 49, 120])
def test_dense_spd_matches_numpy(n):
    rng = np.random.default_rng(n)
    a = random_dense_spd(rng, n)
    a = (a + a.T) / 2
    f = factor_sparse_spd(a)
    b = rng.standard_normal(n)
    assert np.allclose(f.solve(b), np.linalg.solve(a, b), atol=1e-8)
    assert np.allclose(_reconstruct(f), a, atol=1e-9)
    assert f.inertia() == (n, 0, 0)
    assert f.logdet() == pytest.approx(np.linalg.slogdet(a)[1], rel=1e-8)


def test_dense_spd_column_block_matches_numpy():
    rng = np.random.default_rng(3)
    a = random_dense_spd(rng, 12)
    a = (a + a.T) / 2
    B = rng.standard_normal((12, 4))
    assert np.allclose(factor_sparse_spd(a).solve(B), np.linalg.solve(a, B),
                       atol=1e-9)


def test_identity_block_solve_is_the_inverse():
    m = grid2d_poisson(4, ground=0.3).to_matrix()
    f = factor_sparse_spd(m)
    inv = f.solve(np.eye(m.nrows))
    assert np.allclose(inv, np.linalg.inv(m.to_dense()), atol=1e-9)


def test_grounded_grid_input_solves():
    m = grid2d_poisson(5, ground=0.3).to_matrix()
    b = np.random.default_rng(2).standard_normal(25)
    x = factor_sparse_spd(m).solve(b)
    assert np.allclose(m.to_dense() @ x, b, atol=1e-9)


def test_negative_definite_raises():
    with pytest.raises(NotSpdError, match="allow_indefinite"):
        factor_sparse_spd(-np.eye(3))


@pytest.mark.parametrize("allow_indefinite", [False, True])
def test_zero_row_is_singular_either_way(allow_indefinite):
    # the removed dense Cholesky reported this as not SPD; with no
    # pivot to take on row 0, it is a singular matrix whatever is asked
    with pytest.raises(SingularMatrixError):
        factor_sparse_spd(np.array([[0.0, 0.0], [0.0, 1.0]]),
                          allow_indefinite=allow_indefinite)


@pytest.mark.parametrize("dense, inertia", [
    ([[2.0, 1.0], [1.0, -3.0]], (1, 0, 1)),
    # symmetric quasi-definite: strong diagonal of mixed sign
    ([[4.0, 1.0, 0.0], [1.0, -5.0, 2.0], [0.0, 2.0, 6.0]], (2, 0, 1)),
], ids=["2x2", "quasi-definite"])
def test_indefinite_inertia_and_solve(dense, inertia):
    a = np.array(dense)
    f = factor_sparse_spd(a, allow_indefinite=True)
    assert f.inertia() == inertia
    b = np.ones(a.shape[0])
    assert np.allclose(a @ f.solve(b), b, atol=1e-10)
    assert np.allclose(_reconstruct(f), a, atol=1e-12)


def test_shifted_dense_indefinite_solve():
    rng = np.random.default_rng(10)
    a = random_dense_spd(rng, 9) - 3.0 * np.eye(9)
    a = (a + a.T) / 2
    f = factor_sparse_spd(a, allow_indefinite=True)
    _pos, zero, neg = f.inertia()
    assert zero == 0 and neg > 0
    b = rng.standard_normal(9)
    assert np.allclose(f.solve(b), np.linalg.solve(a, b), atol=1e-7)


def test_unchecked_symmetry_factors_a_nearly_symmetric_matrix():
    a = np.array([[2.0, 1.0 + 1e-13], [1.0, 2.0]])
    f = factor_sparse_spd(a, check_symmetry=False)
    b = np.array([1.0, -1.0])
    assert np.allclose(a @ f.solve(b), b, atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 30), st.integers(0, 2 ** 31 - 1))
def test_property_factor_reconstructs(n, seed):
    rng = np.random.default_rng(seed)
    a = random_dense_spd(rng, n, cond=100.0)
    a = (a + a.T) / 2
    f = factor_sparse_spd(a)
    assert np.allclose(_reconstruct(f), a, rtol=1e-8, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 25), st.integers(0, 2 ** 31 - 1))
def test_property_solve_inverts_matvec(n, seed):
    rng = np.random.default_rng(seed)
    a = random_dense_spd(rng, n)
    a = (a + a.T) / 2
    x = rng.standard_normal(n)
    assert np.allclose(factor_sparse_spd(a).solve(a @ x), x, atol=1e-7)
