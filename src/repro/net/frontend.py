"""TCP front end: :class:`~repro.runtime.server.DtmServer` on a socket.

Frames the server's existing in-process request loop
(:meth:`DtmServer.serve`) over the wire protocol of
:mod:`repro.net.wire`: each client connection is pumped through one
``serve()`` call, with non-solve operations (``register``, ``metrics``,
``ping``, ``shutdown``) answered inline between solve requests.  The
hardened serve loop does the heavy lifting — a malformed or
unknown-plan request comes back as an error response and the
connection (and service) lives on.

Operations (JSON header + named float64/int64 arrays per message):

``register``
    CSR triplet arrays (``data``/``indices``/``indptr``) + ``shape``
    + optional ``b`` + plan kwargs → ``{"plan_id": ...}``.
``solve``
    ``plan_id``, array ``b``, ``tol``, optional stopping-rule spec
    (see :func:`repro.net.wire.stopping_from_spec`), ``warm_start``,
    ``tag`` → result scalars + array ``x``.
``metrics``
    The server's merged metric snapshot
    (:meth:`DtmServer.metrics_snapshot`) + its Prometheus text.
``push_plan``
    A serialized plan artifact (:func:`repro.plan.plan_to_bytes`) in
    the frame blob → ``{"plan_id": ...}``; the server admits it like
    a local ``register(plan=...)`` and persists it when its store has
    a ``plan_dir`` — a gateway fleet shares one build this way.
``fetch_plan``
    ``plan_id`` → the artifact bytes in the response blob (served
    from the disk tier when present, else packed on the fly).
``shutdown``
    Acknowledge, then close the server and stop accepting.
"""

from __future__ import annotations

import socket
import threading
from typing import Optional

import numpy as np

from ..errors import PlanArtifactError, TransportError
from ..linalg.sparse import CsrMatrix
from ..obs import render_prometheus
from ..plan import plan_from_bytes, plan_to_bytes
from ..runtime.server import ServeRequest
from . import wire

#: plan kwargs arriving as JSON lists that the planner wants as tuples
_TUPLE_KWARGS = ("grid_shape", "parts_shape")

#: how long :meth:`DtmTcpFrontend.close` waits for its woken accept
#: thread to end (it has nothing left to do; the bound is for a host
#: too loaded to schedule it)
_ACCEPT_JOIN_S = 2.0


def _plan_kwargs(spec: dict) -> dict:
    """Normalize JSON plan kwargs (lists back to tuples)."""
    kwargs = dict(spec)
    for key in _TUPLE_KWARGS:
        value = kwargs.get(key)
        if isinstance(value, list):
            kwargs[key] = tuple(value)
    return kwargs


def _result_header(result) -> dict:
    """JSON-able scalar fields of a :class:`SolveResult`."""
    stop_metric = result.stop_metric
    if stop_metric is not None:
        stop_metric = float(stop_metric)
    return {
        "converged": bool(result.converged),
        "rms_error": float(result.rms_error),
        "relative_residual": float(result.relative_residual),
        "iterations": int(result.iterations),
        "sim_time": float(result.sim_time),
        "plan_reused": bool(result.plan_reused),
        "plan_solves": int(result.plan_solves),
        "warm_started": bool(result.warm_started),
        "stopped_by": result.stopped_by,
        "stop_metric": stop_metric,
    }


class _Connection:
    """One client connection pumped through ``DtmServer.serve``."""

    def __init__(self, frontend: "DtmTcpFrontend", conn) -> None:
        self.frontend = frontend
        self.server = frontend.server
        self.conn = conn

    def run(self) -> None:
        for resp in self.server.serve(self._requests()):
            self._send_solve_response(resp)

    def _reply(
        self,
        header: dict,
        arrays: Optional[dict] = None,
        blob: bytes = b"",
    ) -> None:
        wire.send_message(self.conn, wire.T_RESPONSE, header, arrays, blob)

    # -- the request generator -----------------------------------------
    def _requests(self):
        while True:
            try:
                ftype, obj, arrays, blob = wire.recv_message(self.conn)
            except TransportError:
                return  # client went away: end this serve loop
            if ftype != wire.T_REQUEST:
                self._reply(
                    {
                        "ok": False,
                        "error": "ProtocolError: expected a request frame",
                    },
                )
                return
            op = obj.get("op")
            token = self.frontend.token
            if token is not None and obj.get("token") != token:
                self._reply(
                    {"ok": False, "op": op, "error": "AuthError: bad token"},
                )
                return
            if op == "solve":
                request, error = self._build_solve(obj, arrays)
                if error is not None:
                    self._reply(
                        {
                            "ok": False,
                            "op": "solve",
                            "tag": obj.get("tag"),
                            "error": error,
                        },
                    )
                    continue
                yield request
            elif op == "register":
                self._handle_register(obj, arrays)
            elif op == "push_plan":
                self._handle_push_plan(obj, blob)
            elif op == "fetch_plan":
                self._handle_fetch_plan(obj)
            elif op == "metrics":
                self._handle_metrics()
            elif op == "ping":
                self._reply({"ok": True, "op": "ping"})
            elif op == "shutdown":
                # shut down first, ack after: a client that has seen
                # the reply may rely on the service being gone
                self.frontend.shutdown()
                self._reply({"ok": True, "op": "shutdown"})
                return
            else:
                self._reply(
                    {
                        "ok": False,
                        "op": op,
                        "error": f"ProtocolError: unknown op {op!r}",
                    },
                )

    def _handle_metrics(self) -> None:
        """Serve the fleet-wide merged snapshot + its text rendering."""
        try:
            snap = self.server.metrics_snapshot()
        except Exception as exc:
            self._reply(
                {
                    "ok": False,
                    "op": "metrics",
                    "error": f"{type(exc).__name__}: {exc}",
                },
            )
            return
        self._reply(
            {
                "ok": True,
                "op": "metrics",
                "metrics": snap.to_jsonable(),
                "text": render_prometheus(snap),
            },
        )

    def _build_solve(self, obj: dict, arrays: dict):
        """Decode one solve request; returns ``(request, error)``."""
        try:
            b = arrays["b"]
            stopping = wire.stopping_from_spec(obj.get("stopping"))
            request = ServeRequest(
                plan_id=obj.get("plan_id"),
                b=b,
                tol=float(obj.get("tol", 1e-8)),
                stopping=stopping,
                warm_start=bool(obj.get("warm_start", False)),
                tag=obj.get("tag"),
            )
        except Exception as exc:
            return None, f"{type(exc).__name__}: {exc}"
        return request, None

    def _handle_register(self, obj: dict, arrays: dict) -> None:
        try:
            nrows, ncols = obj["shape"]
            mat = CsrMatrix(
                arrays["data"],
                arrays["indices"],
                arrays["indptr"],
                (int(nrows), int(ncols)),
            )
            b = arrays.get("b")
            if b is not None:
                b = np.asarray(b, dtype=np.float64)
            kwargs = _plan_kwargs(obj.get("plan") or {})
            plan_id = self.server.register(mat, b, **kwargs)
        except Exception as exc:
            self._reply(
                {
                    "ok": False,
                    "op": "register",
                    "error": f"{type(exc).__name__}: {exc}",
                },
            )
            return
        self._reply({"ok": True, "op": "register", "plan_id": plan_id})

    def _handle_push_plan(self, obj: dict, blob: bytes) -> None:
        """Admit a ready-built plan artifact shipped in the blob."""
        try:
            if not blob:
                raise PlanArtifactError(
                    "push_plan carries no artifact bytes")
            plan = plan_from_bytes(blob)
            plan_id = self.server.register(plan=plan)
        except Exception as exc:
            self._reply(
                {
                    "ok": False,
                    "op": "push_plan",
                    "error": f"{type(exc).__name__}: {exc}",
                },
            )
            return
        self._reply({"ok": True, "op": "push_plan", "plan_id": plan_id})

    def _handle_fetch_plan(self, obj: dict) -> None:
        """Serve a stored plan as artifact bytes in the reply blob."""
        plan_id = obj.get("plan_id")
        try:
            data = None
            disk = getattr(self.server.store, "disk", None)
            if disk is not None:
                data = disk.get_bytes(plan_id)
            if data is None:
                data = plan_to_bytes(self.server.store.get(plan_id))
        except Exception as exc:
            self._reply(
                {
                    "ok": False,
                    "op": "fetch_plan",
                    "plan_id": plan_id,
                    "error": f"{type(exc).__name__}: {exc}",
                },
            )
            return
        self._reply(
            {
                "ok": True,
                "op": "fetch_plan",
                "plan_id": plan_id,
                "nbytes": len(data),
            },
            None,
            data,
        )

    # -- responses ------------------------------------------------------
    def _send_solve_response(self, resp) -> None:
        header = {
            "ok": resp.error is None,
            "op": "solve",
            "seq": int(resp.seq),
            "plan_id": resp.plan_id,
            "tag": resp.tag,
            "wall_seconds": float(resp.wall_seconds),
            "error": resp.error,
        }
        arrays = None
        if resp.result is not None:
            header["result"] = _result_header(resp.result)
            arrays = {"x": resp.result.x}
        try:
            self._reply(header, arrays)
        except TransportError:
            pass  # client gone; the next recv ends the loop


class DtmTcpFrontend:
    """Socket server wrapping one :class:`DtmServer`.

    Parameters
    ----------
    server:
        The :class:`~repro.runtime.server.DtmServer` to expose.  The
        front end does not own it — :meth:`close` stops the listener
        only; the remote ``shutdown`` operation closes both.
    host, port:
        Listen address (loopback + ephemeral port by default; the
        bound address is in :attr:`address`).
    token:
        Optional shared secret every request must carry.
    """

    def __init__(
        self,
        server,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        token: Optional[str] = None,
    ) -> None:
        self.server = server
        self.token = token
        self._closing = threading.Event()
        self._thread: Optional[threading.Thread] = None
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(16)
        self._listener = listener
        self.address = listener.getsockname()

    def start(self) -> "DtmTcpFrontend":
        """Serve in a daemon thread; returns self for chaining."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self.serve_forever,
                name="dtm-frontend",
                daemon=True,
            )
            self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Accept loop (blocking): one handler thread per connection."""
        while not self._closing.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            handler = threading.Thread(
                target=self._handle,
                args=(conn,),
                name="dtm-frontend-conn",
                daemon=True,
            )
            handler.start()

    def _handle(self, conn) -> None:
        try:
            _Connection(self, conn).run()
        except (TransportError, OSError):  # pragma: no cover - races
            pass
        finally:
            conn.close()

    def shutdown(self) -> None:
        """Stop accepting **and** close the wrapped server."""
        self.close()
        self.server.close()

    def close(self) -> None:
        """Stop the listener (existing connections finish naturally).

        Closing a listening socket does not wake a thread blocked in
        ``accept()`` on it (Linux): the thread would live on, the
        kernel socket would go on queueing clients of a "closed" front
        end, and the thread would pin front end, server, store and
        plans for good.  ``shutdown`` does wake it, so the accept loop
        has ended — and the address refuses — when this returns.
        """
        self._closing.set()
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # closed before, or a platform whose close() wakes
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - best-effort
            pass
        thread = self._thread
        if thread is not None and thread is not threading.current_thread():
            thread.join(_ACCEPT_JOIN_S)

    def __enter__(self) -> "DtmTcpFrontend":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()


__all__ = [
    "DtmTcpFrontend",
]
