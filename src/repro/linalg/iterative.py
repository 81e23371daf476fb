"""Conjugate gradients and the direct reference solution.

:func:`conjugate_gradient` (SPD systems, relative-residual stopping)
is the examples' global iterative baseline;
:func:`direct_reference_solution` is the library's "exact" solution,
one SuperLU factor and solve at every size.  Both take a
:class:`~repro.linalg.sparse.CsrMatrix` or a dense array.
The paper's discrete-time foils, block Jacobi and block Gauss–Seidel,
are baselines in :mod:`repro.solvers`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConvergenceError
from ..utils.validation import as_float_vector, as_square_matrix
from .sparse import CsrMatrix


@dataclass
class IterativeResult:
    """Outcome of an iterative solve."""

    x: np.ndarray
    iterations: int
    residual_norms: np.ndarray
    converged: bool

    @property
    def final_residual(self) -> float:
        if not self.residual_norms.size:
            return np.inf
        return float(self.residual_norms[-1])


def _as_matvec(a):
    if isinstance(a, CsrMatrix):
        return a.matvec, a.nrows
    arr = as_square_matrix(a, "matrix")
    return (lambda x: arr @ x), arr.shape[0]


def conjugate_gradient(
    a,
    b,
    *,
    x0=None,
    tol: float = 1e-10,
    maxiter: int | None = None,
    raise_on_fail: bool = False,
) -> IterativeResult:
    """Conjugate gradients for SPD systems (relative-residual stopping)."""
    matvec, n = _as_matvec(a)
    bv = as_float_vector(b, "b", n)
    x = np.zeros(n) if x0 is None else as_float_vector(x0, "x0", n).copy()
    maxiter = 10 * n if maxiter is None else int(maxiter)
    r = bv - matvec(x)
    p = r.copy()
    rs = float(r @ r)
    bnorm = float(np.linalg.norm(bv)) or 1.0
    history = [np.sqrt(rs)]
    converged = np.sqrt(rs) <= tol * bnorm
    it = 0
    while not converged and it < maxiter:
        ap = matvec(p)
        denom = float(p @ ap)
        if denom <= 0.0:
            if raise_on_fail:
                raise ConvergenceError(
                    "CG detected a non-positive curvature direction; the "
                    "operator is not SPD"
                )
            break
        alpha = rs / denom
        x += alpha * p
        r -= alpha * ap
        rs_new = float(r @ r)
        history.append(np.sqrt(rs_new))
        it += 1
        if np.sqrt(rs_new) <= tol * bnorm:
            converged = True
            break
        p = r + (rs_new / rs) * p
        rs = rs_new
    if not converged and raise_on_fail:
        raise ConvergenceError(
            f"CG failed to reach tol={tol:g} in {maxiter} iterations "
            f"(final relative residual {history[-1] / bnorm:.3e})"
        )
    return IterativeResult(x, it, np.asarray(history), converged)


def direct_reference_solution(a, b) -> np.ndarray:
    """High-accuracy reference solution used by the experiments.

    One SuperLU factorization of *a* and one solve: bitwise what
    :meth:`SolverPlan.reference <repro.plan.plan.SolverPlan.reference>`
    returns from its cached factor of the same matrix.  A reference
    needs *a* symmetric and nonsingular (a zero pivot raises), not
    positive definite, so its pivots are never read.
    """
    from .sparse_cholesky import factor_sparse_spd

    factor = factor_sparse_spd(a, allow_indefinite=True)
    return factor.solve(np.asarray(b, dtype=np.float64))
