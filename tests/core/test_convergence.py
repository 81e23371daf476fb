"""Tests for error metrics and the convergence tracker."""

import numpy as np
import pytest

from repro.core.convergence import (
    ConvergenceTracker,
    max_error,
    relative_residual,
    rms_error,
)
from repro.errors import ValidationError
from repro.linalg.sparse import CsrMatrix


def test_rms_and_max_error():
    x = np.array([1.0, 2.0, 3.0])
    ref = np.array([1.0, 2.0, 7.0])
    assert rms_error(x, ref) == pytest.approx(4.0 / np.sqrt(3))
    assert max_error(x, ref) == 4.0
    assert rms_error(ref, ref) == 0.0


def test_error_shape_checks():
    with pytest.raises(ValidationError):
        rms_error(np.zeros(2), np.zeros(3))
    with pytest.raises(ValidationError):
        max_error(np.zeros(2), np.zeros(3))


def test_empty_vectors():
    assert rms_error(np.zeros(0), np.zeros(0)) == 0.0
    assert max_error(np.zeros(0), np.zeros(0)) == 0.0


def test_relative_residual_dense_and_sparse():
    a = np.array([[2.0, 0.0], [0.0, 4.0]])
    b = np.array([2.0, 4.0])
    x = np.array([1.0, 1.0])
    assert relative_residual(a, x, b) == 0.0
    m = CsrMatrix.from_dense(a)
    assert relative_residual(m, np.zeros(2), b) == pytest.approx(1.0)


def test_relative_residual_zero_rhs():
    a = np.eye(2)
    assert relative_residual(a, np.zeros(2), np.zeros(2)) == 0.0


def test_relative_residual_shape_check():
    for a in (np.eye(3), CsrMatrix.from_dense(np.eye(3))):
        with pytest.raises(ValidationError):
            relative_residual(a, np.ones(4), np.ones(3))


@pytest.mark.parametrize("seed", range(4))
def test_relative_residual_of_a_csr_matches_its_dense_array(seed):
    # a CsrMatrix multiplies through scipy, a dense array through numpy:
    # the two agree to round-off on a random rectangular matrix
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((11, 8))
    a[rng.random((11, 8)) > 0.25] = 0.0
    x = rng.standard_normal(8)
    b = rng.standard_normal(11)
    want = np.linalg.norm(b - a @ x) / np.linalg.norm(b)
    got = relative_residual(CsrMatrix.from_dense(a), x, b)
    assert got == pytest.approx(want, rel=1e-12)
    assert relative_residual(a, x, b) == pytest.approx(want, rel=1e-12)


def test_relative_residual_of_a_csr_with_empty_rows():
    a = np.zeros((4, 3))
    a[1, 2] = 5.0
    m = CsrMatrix.from_dense(a)
    x = np.array([1.0, 1.0, 2.0])
    assert relative_residual(m, x, np.array([0.0, 10.0, 0.0, 0.0])) == 0.0
    # only the one stored entry contributes to A x
    assert relative_residual(m, x, np.array([1.0, 10.0, 0.0, 0.0])) \
        == pytest.approx(1.0 / np.sqrt(101.0), rel=1e-15)


@pytest.mark.parametrize("shape, want", [
    ((0, 3), 0.0), ((3, 0), 1.0), ((0, 0), 0.0)])
def test_relative_residual_on_empty_shapes(shape, want):
    # A x of an empty CsrMatrix is a zero vector of its row count
    m = CsrMatrix.zeros(shape)
    b = np.ones(shape[0])
    assert relative_residual(m, np.ones(shape[1]), b) == want


def _laplacian_1d(n):
    i = np.arange(n)
    return CsrMatrix.from_coo(
        np.concatenate([i, i[1:], i[:-1]]),
        np.concatenate([i, i[:-1], i[1:]]),
        np.concatenate([np.full(n, 2.5), np.full(2 * (n - 1), -1.0)]),
        (n, n))


def test_relative_residual_stays_off_the_blas_pool(monkeypatch):
    """Every coordinator look calls this while the shard workers need
    both cores: ``np.linalg.norm`` / ``np.dot`` would wake the BLAS
    helper threads, which then spin on one of them."""
    def blas(*args, **kwargs):
        raise AssertionError("a stopping check reached BLAS")

    monkeypatch.setattr(np.linalg, "norm", blas)
    monkeypatch.setattr(np, "dot", blas)
    a = _laplacian_1d(50)
    x = np.linspace(0.0, 1.0, 50)
    assert relative_residual(a, x, a.to_scipy() @ x) == 0.0
    assert relative_residual(a, np.zeros(50), np.ones(50)) \
        == pytest.approx(1.0)


@pytest.mark.parametrize("n", [3, 1000, 57600])
def test_relative_residual_agrees_with_the_blas_formula(n):
    rng = np.random.default_rng(n)
    a = _laplacian_1d(n)
    for scale in (1.0, 1e-9, 1e7):
        x = rng.standard_normal(n)
        b = scale * rng.standard_normal(n)
        blas = np.linalg.norm(b - a.to_scipy() @ x) / np.linalg.norm(b)
        assert relative_residual(a, x, b) == pytest.approx(blas, rel=1e-14)


def test_relative_residual_zero_rhs_and_inclusive_stop_on_sparse():
    from repro.core.convergence import (
        ResidualRule,
        SolveContext,
        StateProbe,
    )

    a = _laplacian_1d(4)
    x = np.array([1.0, 0.0, 0.0, 0.0])
    # ‖b‖ = 0: the denominator is 1, the measure is ‖A x‖ itself
    assert relative_residual(a, x, np.zeros(4)) \
        == pytest.approx(np.sqrt(2.5 ** 2 + 1.0))
    # a residual exactly at the tolerance counts as converged
    b = np.ones(4)
    at_tol = relative_residual(a, x, b)
    monitor = ResidualRule(tol=at_tol).begin(SolveContext(a=a, b=b))
    event = monitor.update(0.0, StateProbe(lambda: x))
    assert event is not None and event.converged
    assert event.metric == at_tol


def test_tracker_records_and_converges():
    ref = np.array([1.0, 1.0])
    tr = ConvergenceTracker(reference=ref, tol=0.1)
    assert not tr.converged
    e1 = tr.record(0.0, np.array([2.0, 2.0]))
    assert e1 == pytest.approx(1.0)
    assert not tr.converged
    tr.record(1.0, np.array([1.01, 1.01]))
    assert tr.converged
    assert tr.final_error == pytest.approx(0.01)
    assert tr.time_to_tol() == 1.0


def test_tracker_metric_max():
    ref = np.zeros(2)
    tr = ConvergenceTracker(reference=ref, tol=None, metric="max")
    tr.record(0.0, np.array([0.5, -2.0]))
    assert tr.final_error == 2.0
    assert not tr.converged  # no tolerance set


def test_tracker_unknown_metric():
    with pytest.raises(ValidationError):
        ConvergenceTracker(reference=np.zeros(1), metric="median")


def test_tracker_bad_tol():
    with pytest.raises(ValidationError):
        ConvergenceTracker(reference=np.zeros(1), tol=0.0)


def test_tracker_exactly_tol_converges():
    # convergence is inclusive (err <= tol), matching the CG convention
    # in linalg.iterative; time_to_tol uses the same comparison
    tr = ConvergenceTracker(reference=np.zeros(1), tol=0.25)
    tr.record(0.0, np.array([1.0]))
    assert not tr.converged
    tr.record(3.0, np.array([0.25]))  # exactly tol
    assert tr.converged
    assert tr.time_to_tol() == 3.0


def test_first_time_below_inclusive():
    from repro.utils.timeseries import TimeSeries

    ts = TimeSeries("err")
    ts.append(0.0, 1.0)
    ts.append(1.0, 0.5)
    assert ts.first_time_below(0.5) == 1.0  # inclusive comparison
    assert ts.first_time_below(0.49) is None


def test_tracker_record_without_reference():
    tr = ConvergenceTracker(tol=0.5)
    with pytest.raises(ValidationError):
        tr.record(0.0, np.zeros(2))
    tr.record_value(0.0, 1.0)
    tr.record_value(1.0, 0.1)
    assert tr.converged


def test_tracker_time_to_tol_custom_threshold():
    tr = ConvergenceTracker(reference=np.zeros(1), tol=None)
    tr.record(0.0, np.array([1.0]))
    tr.record(5.0, np.array([0.001]))
    assert tr.time_to_tol(0.01) == 5.0
    with pytest.raises(ValidationError):
        tr.time_to_tol()


def test_tracker_decay_rate():
    tr = ConvergenceTracker(reference=np.zeros(1))
    for k in range(10):
        tr.record(float(k), np.array([10.0 ** (-k)]))
    assert tr.decay_rate() == pytest.approx(-1.0, abs=1e-6)


def test_tracker_empty_final_error():
    tr = ConvergenceTracker(reference=np.zeros(1))
    assert tr.final_error == np.inf
