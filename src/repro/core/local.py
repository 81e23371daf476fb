"""The constant local system each subdomain solves (paper (5.8)/(5.9)).

After EVS and DTLP insertion, subdomain *j* must repeatedly solve

.. math:: \\begin{bmatrix} C_j + Z_j^{-1} & E_j \\\\ F_j & D_j
          \\end{bmatrix}
          \\begin{bmatrix} u_j(t) \\\\ y_j(t) \\end{bmatrix} =
          \\begin{bmatrix} f_j + Z_j^{-1} a_j(t) \\\\ g_j \\end{bmatrix}

where ``a_j`` collects the most recently *received* incoming waves
``u_twin(t−τ) − Z ω_twin(t−τ)``.  The coefficient matrix is constant —
the paper's key speed observation — so we factor once and, going one
step further, precompute the affine response

.. math:: u_{ports}(a) = u_0 + W\\,a, \\qquad x_{full}(a) = x_0 + X\\,a

turning every asynchronous resolve into one small dense mat-vec.

A port may carry several DTLs (multilevel tearing): each attachment
adds its own ``1/Z`` to that port's diagonal and its own wave column.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..errors import NotSpdError, SingularMatrixError, ValidationError
from ..graph.partition import Subdomain
from ..linalg.sparse import CsrMatrix
from ..linalg.sparse_cholesky import factor_sparse_spd
from ..utils.validation import require


@dataclass
class LocalSystem:
    """Factored local system of one subdomain with wave-response maps.

    Build with :func:`build_local_system`.  The hot-path API is
    :meth:`solve_ports` (ports only, r×s mat-vec) plus
    :meth:`full_state` when interiors are needed (observers and final
    reconstruction).
    """

    part: int
    n_local: int
    n_ports: int
    #: (dtlp_index, local_port, impedance) per wave slot, in slot order.
    attachments: list[tuple[int, int, float]]
    #: port row of each slot (len = n_slots)
    slot_ports: np.ndarray
    #: 1/Z of each slot
    slot_inv_z: np.ndarray
    #: x_full(a) = x0 + X @ a
    x0: np.ndarray
    X: np.ndarray
    #: retained SuperLU factor (:class:`SparseSpdFactor`); enables
    #: :meth:`set_rhs` — re-deriving ``x0`` for a new right-hand side
    #: with one back-substitution instead of a re-factorization.
    factor: Optional[object] = field(default=None, repr=False)

    def __post_init__(self) -> None:
        # read-only aliases served by the zero-slot fast paths: callers
        # get views, not copies, and must not mutate them
        self._x0_ro = self.x0.view()
        self._x0_ro.flags.writeable = False

    def __getstate__(self) -> dict:
        # drop the read-only view: pickled as-is it would detach from
        # x0 on load, silently breaking the set_x0 aliasing contract
        # (a plan artifact pickles its LocalSystems)
        state = self.__dict__.copy()
        state.pop("_x0_ro", None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    @property
    def n_slots(self) -> int:
        return int(self.slot_ports.size)

    @property
    def u0(self) -> np.ndarray:
        """Port potentials under zero incoming waves."""
        return self.x0[: self.n_ports]

    @property
    def W(self) -> np.ndarray:
        """Port block of the wave-response matrix."""
        return self.X[: self.n_ports, :]

    def solve_ports(self, waves: np.ndarray) -> np.ndarray:
        """Port potentials ``u`` for the given incoming waves.

        The zero-slot fast path returns a read-only view of ``u0``.
        """
        if self.n_slots == 0:
            return self._x0_ro[: self.n_ports]
        return self.u0 + self.W @ waves

    def full_state(self, waves: np.ndarray) -> np.ndarray:
        """Full local state ``[u; y]`` for the given incoming waves.

        The zero-slot fast path returns a read-only view of ``x0``.
        """
        if self.n_slots == 0:
            return self._x0_ro
        return self.x0 + self.X @ waves

    def slot_currents(self, waves: np.ndarray,
                      u_ports: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-DTL inflow currents ``ω_l = (a_l − u_{p(l)}) / Z_l``."""
        if u_ports is None:
            u_ports = self.solve_ports(waves)
        return (waves - u_ports[self.slot_ports]) * self.slot_inv_z

    def port_currents(self, waves: np.ndarray,
                      u_ports: Optional[np.ndarray] = None) -> np.ndarray:
        """Total inflow current per port (sums multi-DTL attachments)."""
        cur = self.slot_currents(waves, u_ports)
        # np.bincount is far faster than np.add.at for this scatter-add
        return np.bincount(self.slot_ports, weights=cur,
                           minlength=self.n_ports)

    def outgoing_waves(self, waves: np.ndarray,
                       u_ports: Optional[np.ndarray] = None) -> np.ndarray:
        """Waves launched back on every slot's DTLP: ``b = 2u − a``."""
        if u_ports is None:
            u_ports = self.solve_ports(waves)
        return 2.0 * u_ports[self.slot_ports] - waves

    # ------------------------------------------------------------------
    # RHS swap (the plan/session amortization primitive)
    # ------------------------------------------------------------------
    def response_for(self, rhs: np.ndarray) -> np.ndarray:
        """Zero-wave state ``x0`` implied by a new local right-hand side.

        One back-substitution against the retained factor — no
        re-factorization.  *rhs* may be ``(n,)`` or a column block
        ``(n, k)``; block columns are bitwise-identical to solving each
        column separately (SuperLU applies the same sweeps to every
        column), which is what lets :meth:`SolverSession.solve_many
        <repro.plan.session.SolverSession.solve_many>` batch its RHS
        preparation without changing any per-column result.
        """
        if self.factor is None:
            raise ValidationError(
                f"local system of subdomain {self.part} was built without "
                "a retained factor; rebuild with build_local_system")
        rhs = np.asarray(rhs, dtype=np.float64)
        if rhs.shape[0] != self.n_local:
            raise ValidationError(
                f"subdomain {self.part} rhs must have {self.n_local} rows, "
                f"got shape {rhs.shape}")
        return self.factor.solve(rhs)

    def set_x0(self, x0: np.ndarray) -> None:
        """Overwrite the zero-wave state in place (views stay valid)."""
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != (self.n_local,):
            raise ValidationError(
                f"x0 must have shape ({self.n_local},), got {x0.shape}")
        # in-place so _x0_ro and any fleet u0 views keep aliasing
        writable = self.x0
        writable[...] = x0

    def set_rhs(self, rhs: np.ndarray) -> None:
        """Swap the local right-hand side: ``x0 ← A⁻¹ rhs``, ``X`` kept."""
        if self.n_local == 0:
            return
        self.set_x0(self.response_for(rhs))

    def fork(self) -> "LocalSystem":
        """Session-private copy: own ``x0``, shared ``X``/factor/tables.

        ``X``, the factor and the slot tables are immutable after
        construction, so forks share them; only the per-right-hand-side
        ``x0`` (a length-n vector) is copied.  Sessions fork the plan's
        base locals so concurrent sessions with different right-hand
        sides never see each other's swaps.
        """
        return LocalSystem(
            part=self.part, n_local=self.n_local, n_ports=self.n_ports,
            attachments=self.attachments, slot_ports=self.slot_ports,
            slot_inv_z=self.slot_inv_z, x0=self.x0.copy(), X=self.X,
            factor=self.factor)

    def residual(self, waves: np.ndarray, matrix, rhs: np.ndarray
                 ) -> np.ndarray:
        """Residual of the *original* subdomain equations (4.3).

        ``A_loc x − rhs − [ω; 0]`` must vanish for the state implied by
        any wave vector — this is the defining property of (5.9) and a
        cheap self-check used by the tests.
        """
        x = self.full_state(waves)
        omega = np.zeros(self.n_local)
        omega[: self.n_ports] = self.port_currents(
            waves, x[: self.n_ports])
        return matrix.to_scipy() @ x - rhs - omega


def build_local_system(sub: Subdomain,
                       attachments: Sequence[tuple[int, int, float]],
                       *, allow_indefinite: bool = False) -> LocalSystem:
    """Assemble and factor the local system (5.9) for one subdomain.

    ``K + diag(1/Z)`` is factored once by SuperLU (see
    :func:`~repro.linalg.sparse_cholesky.factor_sparse_spd`) on its CSR
    arrays, never densified, and the factor is retained for right-hand
    side swaps.

    Parameters
    ----------
    sub:
        The EVS subdomain (ports-first local ordering).
    attachments:
        ``(dtlp_index, local_port, impedance)`` per incoming wave slot.
    allow_indefinite:
        The merged matrix ``C + Z^{-1}`` of an SNND subgraph with at
        least one attached DTL is SPD in all ordinary cases; set this
        to keep a factor with negative pivots when a deliberately
        indefinite subgraph must still be handled.  A zero pivot on the
        diagonal is never factored: it raises
        :class:`SingularMatrixError` naming the subdomain.
    """
    n = sub.n_local
    for _idx, port, z in attachments:
        require(0 <= port < sub.n_ports,
                f"attachment references port {port} outside "
                f"[0, {sub.n_ports})")
        require(z > 0, "impedances must be positive")
    n_slots = len(attachments)
    slot_ports = np.asarray([port for _i, port, _z in attachments],
                            dtype=np.int64)
    slot_inv_z = np.asarray([1.0 / z for _i, _p, z in attachments])

    if n == 0:
        return LocalSystem(part=sub.part, n_local=0, n_ports=0,
                           attachments=list(attachments),
                           slot_ports=slot_ports, slot_inv_z=slot_inv_z,
                           x0=np.zeros(0), X=np.zeros((0, 0)))

    # right-hand sides, pre-allocated: base f, plus one e_p / z column
    # per slot
    rhs_block = np.zeros((n, 1 + n_slots))
    rhs_block[:, 0] = sub.rhs
    rhs_block[slot_ports, 1 + np.arange(n_slots)] = slot_inv_z

    k_sp = sub.matrix
    if n_slots:
        # K + diag(1/z) edits the stored diagonal of a copy: K's
        # pattern is kept, where a sparse sum drops cancelled entries
        k = k_sp.to_scipy().copy()
        k.setdiag(k.diagonal() + np.bincount(
            slot_ports, weights=slot_inv_z, minlength=n))
        k_sp = CsrMatrix(k.data, k.indices, k.indptr, k.shape)
    try:
        factor = factor_sparse_spd(
            k_sp, check_symmetry=False, allow_indefinite=allow_indefinite)
    except NotSpdError:
        raise NotSpdError(
            f"local system of subdomain {sub.part} is not SPD; the "
            "subgraph violates the SNND hypothesis of Theorem 6.1 (pass "
            "allow_indefinite=True to keep an indefinite factor)"
        ) from None
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"local system of subdomain {sub.part} cannot be factored "
            f"({exc}); Theorem 6.1 asks for an SNND subgraph, which "
            "its attached DTLs make SPD") from exc
    solution = factor.solve(rhs_block)

    x0 = solution[:, 0].copy()
    X = solution[:, 1:].copy()
    return LocalSystem(part=sub.part, n_local=n, n_ports=sub.n_ports,
                       attachments=list(attachments),
                       slot_ports=slot_ports, slot_inv_z=slot_inv_z,
                       x0=x0, X=X, factor=factor)


def build_all_local_systems(split, network, *,
                            allow_indefinite: bool = False
                            ) -> list[LocalSystem]:
    """Build the factored local system of every subdomain of a split,
    in the split's subdomain order.

    *network* is the :class:`~repro.core.dtl.DtlpNetwork` whose
    attachment tables define the wave slots.
    """
    return [build_local_system(sub, network.attachments[sub.part],
                               allow_indefinite=allow_indefinite)
            for sub in split.subdomains]


def validate_local_system(local: LocalSystem, sub: Subdomain,
                          n_probe: int = 3, seed: int = 0,
                          atol: float = 1e-8) -> None:
    """Probe the (5.9) ⇔ (4.3) equivalence with random wave vectors.

    Raises :class:`ValidationError` if the implied state/current pair
    fails the original block equations — a construction self-check used
    by the test-suite and by :mod:`repro.experiments.table1`.
    """
    rng = np.random.default_rng(seed)
    for _ in range(n_probe):
        waves = rng.standard_normal(local.n_slots)
        res = local.residual(waves, sub.matrix, sub.rhs)
        dev = float(np.max(np.abs(res))) if res.size else 0.0
        if dev > atol:
            raise ValidationError(
                f"local system of subdomain {local.part} violates (4.3): "
                f"max residual {dev:.3e}")
