"""DtmClient: solve against a remote DTM server over one socket.

The client half of the serving front end
(:class:`~repro.net.frontend.DtmTcpFrontend`): register a system once,
then stream right-hand sides —

.. code-block:: python

    from repro.net import DtmClient

    with DtmClient(("127.0.0.1", 7070)) as client:
        plan_id = client.register(a, b, n_subdomains=16)
        res = client.solve(plan_id, b, tol=1e-6)
        print(res.converged, res.relative_residual)

Results come back as the same :class:`~repro.plan.session.SolveResult`
the in-process API returns (wire-transportable fields only: the error
time series, split and shard reports stay server-side).  Remote
failures raise :class:`~repro.errors.RemoteError` with the server's
``"Type: message"`` detail.
"""

from __future__ import annotations

import json
import socket
from typing import Optional

import numpy as np

from ..errors import (
    ConfigurationError,
    ProtocolError,
    RemoteError,
    TransportError,
)
from ..graph.electric import ElectricGraph
from ..linalg.sparse import CsrMatrix
from ..plan.session import SolveResult
from . import wire


def _parse_address(address) -> tuple:
    """Accept ``(host, port)`` or ``"host:port"``."""
    if isinstance(address, str):
        host, _, port = address.rpartition(":")
        if not host or not port.isdigit():
            raise ConfigurationError(f"address {address!r} is not 'host:port'")
        return host, int(port)
    host, port = address
    return str(host), int(port)


def _as_system(a, b) -> tuple:
    """Normalize a register() input to ``(CsrMatrix, b_or_None)``."""
    if isinstance(a, ElectricGraph):
        mat = a.to_matrix()
        b_vec = a.sources if b is None else b
    elif isinstance(a, CsrMatrix):
        mat, b_vec = a, b
    else:
        mat = CsrMatrix.from_dense(np.asarray(a, dtype=np.float64))
        b_vec = b
    if b_vec is not None:
        b_vec = np.asarray(b_vec, dtype=np.float64)
    return mat, b_vec


def _result_from_wire(header: dict, arrays: dict) -> SolveResult:
    fields = header["result"]
    stop_metric = fields.get("stop_metric")
    if stop_metric is not None:
        stop_metric = float(stop_metric)
    return SolveResult(
        x=arrays["x"],
        rms_error=float(fields["rms_error"]),
        relative_residual=float(fields["relative_residual"]),
        converged=bool(fields["converged"]),
        iterations=int(fields["iterations"]),
        sim_time=float(fields["sim_time"]),
        plan_reused=bool(fields["plan_reused"]),
        plan_solves=int(fields["plan_solves"]),
        warm_started=bool(fields["warm_started"]),
        stopped_by=fields.get("stopped_by"),
        stop_metric=stop_metric,
    )


class DtmClient:
    """One-connection client of a :class:`DtmTcpFrontend`.

    Parameters
    ----------
    address:
        ``(host, port)`` tuple or ``"host:port"`` string.
    token:
        Shared secret, when the front end requires one.
    timeout:
        Deadline in seconds for connect and for each response.  A
        server that dies mid-solve (or hangs) surfaces as
        :class:`~repro.errors.RemoteError` when the deadline passes
        instead of blocking this client forever; ``None`` blocks
        indefinitely.  :meth:`solve` accepts a per-call ``deadline``
        override for known-long solves.
    """

    def __init__(
        self,
        address,
        *,
        token: Optional[str] = None,
        timeout: Optional[float] = 300.0,
    ) -> None:
        host, port = _parse_address(address)
        try:
            sock = socket.create_connection((host, port), timeout=timeout)
        except OSError as exc:
            raise TransportError(
                f"cannot connect to DTM server at {host}:{port}: {exc}"
            ) from exc
        sock.settimeout(timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self.timeout = timeout
        self.token = token
        self._closed = False

    # -- plumbing -------------------------------------------------------
    def _request(
        self,
        header: dict,
        arrays: Optional[dict] = None,
        blob: bytes = b"",
        *,
        deadline: Optional[float] = None,
    ) -> tuple:
        """Returns ``(header, arrays, blob)`` of the response frame."""
        if self._closed:
            raise ConfigurationError("client is closed")
        if self.token is not None:
            header = dict(header, token=self.token)
        effective = self.timeout if deadline is None else deadline
        if deadline is not None:
            self._sock.settimeout(deadline)
        try:
            wire.send_message(
                self._sock, wire.T_REQUEST, header, arrays, blob
            )
            ftype, obj, arrays_out, blob_out = wire.recv_message(self._sock)
        except TransportError as exc:
            if isinstance(exc.__cause__, socket.timeout):
                # after a timeout the stream may hold a half-read
                # frame; the connection is unusable — close it so a
                # retry cannot desynchronize the protocol
                self.close()
                raise RemoteError(
                    f"no response from the DTM server within "
                    f"{effective:.0f}s (it may have died mid-solve); "
                    "the connection has been closed"
                ) from exc
            raise
        finally:
            if deadline is not None and not self._closed:
                self._sock.settimeout(self.timeout)
        if ftype != wire.T_RESPONSE:
            raise ProtocolError(f"expected a response frame, got {ftype}")
        return obj, arrays_out, blob_out

    @staticmethod
    def _require_ok(obj: dict) -> dict:
        if not obj.get("ok"):
            raise RemoteError(obj.get("error") or "unknown remote error")
        return obj

    # -- operations -----------------------------------------------------
    def ping(self) -> bool:
        obj, _, _ = self._request({"op": "ping"})
        self._require_ok(obj)
        return True

    def register(self, a, b=None, **plan_kwargs) -> str:
        """Ship a system to the server; returns its plan id.

        *a* may be a :class:`CsrMatrix`, a dense array or an
        :class:`ElectricGraph` (whose sources provide *b* when
        omitted).  Plan kwargs (``n_subdomains``, ``seed``,
        ``grid_shape``, ...) must be JSON-serializable — machine
        topologies and custom impedance objects cannot cross the wire;
        configure those server-side.
        """
        mat, b_vec = _as_system(a, b)
        try:
            json.dumps(plan_kwargs)
        except TypeError as exc:
            raise ConfigurationError(
                f"plan kwargs must be JSON-serializable: {exc}"
            ) from exc
        arrays = {
            "data": mat.data,
            "indices": mat.indices,
            "indptr": mat.indptr,
        }
        if b_vec is not None:
            arrays["b"] = b_vec
        header = {
            "op": "register",
            "shape": [mat.nrows, mat.ncols],
            "plan": plan_kwargs,
        }
        obj, _, _ = self._request(header, arrays)
        self._require_ok(obj)
        return str(obj["plan_id"])

    def solve(
        self,
        plan_id: str,
        b,
        *,
        tol: float = 1e-8,
        stopping=None,
        warm_start: bool = False,
        tag=None,
        deadline: Optional[float] = None,
    ) -> SolveResult:
        """One remote solve; raises :class:`RemoteError` on failure.

        *deadline* overrides the client-wide ``timeout`` for this one
        response — raise it for solves known to run long, lower it to
        fail fast when the server is suspected dead.
        """
        header = {
            "op": "solve",
            "plan_id": plan_id,
            "tol": float(tol),
            "stopping": wire.stopping_to_spec(stopping),
            "warm_start": bool(warm_start),
            "tag": tag,
        }
        b_vec = np.asarray(b, dtype=np.float64)
        obj, arrays, _ = self._request(header, {"b": b_vec}, deadline=deadline)
        self._require_ok(obj)
        return _result_from_wire(obj, arrays)

    def solve_many(self, plan_id: str, B, **solve_kwargs) -> list:
        """Solve every column of ``B`` (shape ``(n, k)``) in order.

        Columns are solved one by one over the warm remote runner —
        the same per-column semantics as
        :meth:`SolverSession.solve_many`.
        """
        blk = np.asarray(B, dtype=np.float64)
        if blk.ndim != 2:
            raise ConfigurationError(
                f"solve_many needs a 2-d column block, got {blk.shape}"
            )
        return [
            self.solve(plan_id, blk[:, j], **solve_kwargs)
            for j in range(blk.shape[1])
        ]

    def push_plan(self, plan) -> str:
        """Ship a ready-built plan (or artifact bytes) to the server.

        *plan* may be a :class:`~repro.plan.SolverPlan` (packed with
        :func:`repro.plan.plan_to_bytes`) or the artifact byte string
        itself — e.g. read straight from another store's ``plan_dir``.
        The server admits it exactly like a local ``register(plan=)``,
        persisting it when its store has a disk tier, so one build can
        fan out across a gateway fleet without any replanning.
        """
        if isinstance(plan, (bytes, bytearray, memoryview)):
            data = bytes(plan)
        else:
            from ..plan import plan_to_bytes

            data = plan_to_bytes(plan)
        obj, _, _ = self._request({"op": "push_plan"}, None, data)
        self._require_ok(obj)
        return str(obj["plan_id"])

    def fetch_plan(self, plan_id: str, *, as_bytes: bool = False):
        """Download a stored plan as a local, runnable plan object.

        With ``as_bytes=True`` the raw artifact byte string is
        returned instead (e.g. to relay into another server's
        ``push_plan`` or write into a local ``plan_dir``).  Raises
        :class:`RemoteError` when the server has no such plan.
        """
        obj, _, blob = self._request(
            {"op": "fetch_plan", "plan_id": plan_id})
        self._require_ok(obj)
        if as_bytes:
            return blob
        from ..plan import plan_from_bytes

        return plan_from_bytes(blob)

    def metrics(self, *, as_text: bool = False):
        """The server's merged fleet-wide metrics snapshot.

        Returns a :class:`~repro.obs.MetricsSnapshot` — the server's
        own registry merged with the latest snapshot from every shard
        worker process — or, with ``as_text=True``, the server-side
        Prometheus text rendering ready to expose to a scraper.
        """
        obj, _, _ = self._request({"op": "metrics"})
        self._require_ok(obj)
        if as_text:
            return obj["text"]
        from ..obs import MetricsSnapshot

        return MetricsSnapshot.from_jsonable(obj["metrics"])

    def shutdown(self) -> None:
        """Ask the server to shut down, then close this client."""
        obj, _, _ = self._request({"op": "shutdown"})
        self._require_ok(obj)
        self.close()

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - best-effort
            pass

    def __enter__(self) -> "DtmClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = [
    "DtmClient",
]
