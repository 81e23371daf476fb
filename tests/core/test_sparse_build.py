"""Sparse local factorizations: dense/sparse equivalence at build level.

The ``numerics`` knob of :func:`build_local_system` must be a pure
performance choice: ``"sparse"`` agrees with ``"dense"`` to 1e-10
relative, ``"dense"`` is bitwise-identical to the historical default,
``"auto"`` resolves by size/fill thresholds, and the pooled
:func:`build_all_local_systems` is bitwise-identical to the serial
build.
"""

import numpy as np
import pytest

from repro.core.dtl import build_dtlp_network
from repro.core.local import (
    build_all_local_systems,
    build_local_system,
    resolve_numerics,
    validate_local_system,
)
from repro.errors import ConfigurationError, NotSpdError
from repro.graph.evs import DominancePreservingSplit, split_graph
from repro.graph.partitioners import (
    greedy_grow_partition,
    grid_block_partition,
)
from repro.linalg.sparse import CsrMatrix, forbid_densify
from repro.linalg.sparse_cholesky import SparseSpdFactor
from repro.workloads.circuits import resistor_grid
from repro.workloads.poisson import grid2d_poisson


def _split_poisson(nx=16, pr=2, pc=2):
    g = grid2d_poisson(nx)
    p = grid_block_partition(nx, nx, pr, pc)
    split = split_graph(g, p, strategy=DominancePreservingSplit())
    net = build_dtlp_network(split, 1.0, 1.0)
    return split, net


def _split_circuit(rows=12, cols=12, n_parts=4):
    g = resistor_grid(rows, cols, seed=3)
    p = greedy_grow_partition(g, n_parts, seed=0)
    split = split_graph(g, p, strategy=DominancePreservingSplit())
    net = build_dtlp_network(split, 1.0, 1.0)
    return split, net


def _max_rel(a, b):
    scale = max(float(np.max(np.abs(a))), 1.0)
    return float(np.max(np.abs(a - b))) / scale


# ----------------------------------------------------------------------
# the knob itself
# ----------------------------------------------------------------------
def test_resolve_numerics_thresholds():
    assert resolve_numerics("dense", 10_000, 1) == "dense"
    assert resolve_numerics("sparse", 2, 4) == "sparse"
    # auto: needs both size and sparsity
    assert resolve_numerics("auto", 100, 500) == "dense"  # too small
    assert resolve_numerics("auto", 1000, 5000) == "sparse"
    assert resolve_numerics("auto", 1000, 600_000) == "dense"  # too full
    with pytest.raises(ConfigurationError):
        resolve_numerics("blocked", 10, 10)


def test_existing_grids_resolve_dense_under_auto():
    # every pre-PR test workload is below the auto threshold, so the
    # default numerics="auto" cannot change any historical result
    split, _ = _split_poisson(nx=20, pr=2, pc=4)
    for sub in split.subdomains:
        n = sub.matrix.nrows
        assert resolve_numerics("auto", n, sub.matrix.nnz) == "dense"


# ----------------------------------------------------------------------
# dense/sparse equivalence per subdomain
# ----------------------------------------------------------------------
@pytest.mark.parametrize("maker", [_split_poisson, _split_circuit],
                         ids=["poisson", "circuit"])
def test_sparse_locals_match_dense(maker):
    split, net = maker()
    dense = build_all_local_systems(split, net, numerics="dense")
    sparse = build_all_local_systems(split, net, numerics="sparse")
    for ld, ls, sub in zip(dense, sparse, split.subdomains):
        assert isinstance(ls.factor, SparseSpdFactor)
        assert _max_rel(ld.x0, ls.x0) <= 1e-10
        assert _max_rel(ld.X, ls.X) <= 1e-10
        validate_local_system(ls, sub)


def test_dense_knob_bitwise_identical_to_default():
    # numerics="dense" IS the historical path: not approximately equal,
    # bitwise equal
    split, net = _split_poisson(nx=12)
    legacy = build_all_local_systems(split, net)
    explicit = build_all_local_systems(split, net, numerics="dense")
    for l0, l1 in zip(legacy, explicit):
        assert np.array_equal(l0.x0, l1.x0)
        assert np.array_equal(l0.X, l1.X)


def test_sparse_local_matrix_is_k_plus_slot_diagonal_bitwise():
    # K + diag(1/z) is built through scipy: its values must be the
    # dense sum's bits and its pattern K's own, so a binop that drops a
    # stored entry cannot go unnoticed
    split, net = _split_poisson()
    locals_ = build_all_local_systems(split, net, numerics="sparse")
    for loc, sub in zip(locals_, split.subdomains):
        k, f = sub.matrix, loc.factor
        v = np.bincount(loc.slot_ports, weights=loc.slot_inv_z,
                        minlength=k.nrows)
        assert np.count_nonzero(v) > 0
        assert f.a_indices.dtype == f.a_indptr.dtype == np.int64
        assert np.array_equal(f.a_indptr, k.indptr)
        assert np.array_equal(f.a_indices, k.indices)
        kz = CsrMatrix(f.a_data, f.a_indices, f.a_indptr, k.shape)
        assert np.array_equal(kz.to_dense(), k.to_dense() + np.diag(v))


def test_sparse_build_never_densifies():
    # the acceptance guard: a sparse build must not materialize any
    # dense subdomain matrix
    split, net = _split_poisson(nx=12)
    with forbid_densify("sparse plan build must stay sparse"):
        locals_ = build_all_local_systems(split, net, numerics="sparse")
    assert all(isinstance(l.factor, SparseSpdFactor) for l in locals_)


def test_invalid_numerics_rejected():
    split, net = _split_poisson(nx=8, pr=2, pc=1)
    with pytest.raises(ConfigurationError):
        build_local_system(split.subdomains[0], [], numerics="banded")


def test_sparse_not_spd_names_subdomain():
    import dataclasses

    split, net = _split_poisson(nx=8, pr=2, pc=1)
    sub = split.subdomains[0]
    n = sub.matrix.nrows
    bad = CsrMatrix.from_dense(sub.matrix.to_dense() - 50.0 * np.eye(n))
    sub = dataclasses.replace(sub, matrix=bad)
    with pytest.raises(NotSpdError, match="subdomain"):
        build_local_system(sub, [], numerics="sparse")


# ----------------------------------------------------------------------
# fork sharing + pooled builds
# ----------------------------------------------------------------------
@pytest.mark.parametrize("numerics", ["dense", "sparse"])
def test_fork_shares_immutable_factor_and_response(numerics):
    split, net = _split_poisson(nx=12)
    base = build_all_local_systems(split, net, numerics=numerics)
    for loc in base:
        f = loc.fork()
        assert f.factor is loc.factor  # shared, never deep-copied
        assert f.X is loc.X
        assert f.x0 is not loc.x0  # per-session state is private
        assert np.array_equal(f.x0, loc.x0)


@pytest.mark.parametrize("numerics", ["dense", "sparse"])
def test_pooled_build_bitwise_identical_to_serial(numerics):
    split, net = _split_poisson(nx=12)
    serial = build_all_local_systems(split, net, numerics=numerics)
    pooled = build_all_local_systems(split, net, numerics=numerics,
                                     workers=2)
    for ls, lp in zip(serial, pooled):
        assert np.array_equal(ls.x0, lp.x0)
        assert np.array_equal(ls.X, lp.X)
        assert np.array_equal(ls.slot_ports, lp.slot_ports)


def test_pooled_build_rejects_bad_worker_counts():
    split, net = _split_poisson(nx=8, pr=2, pc=1)
    with pytest.raises(ConfigurationError):
        build_all_local_systems(split, net, workers=0)
    with pytest.raises(ConfigurationError):
        build_all_local_systems(split, net, workers=-3)
