"""Length-prefixed framing shared by the shard transport and front end.

One frame on the wire is a 4-byte big-endian payload length followed
by one type byte and the payload.  Payloads carry a JSON header plus
zero or more raw numpy array buffers (dtype/shape described in the
header, bytes concatenated after it) and an optional trailing opaque
blob — enough structure for both halves of :mod:`repro.net`: the
wave/control frames of :class:`~repro.net.mesh.MeshTransport` and
the request/response messages of the serving front end.

Reads are torn-safe by construction: :func:`recv_exact` loops until
the full frame is buffered, so a decoded message is always complete,
and a failed or half-closed socket surfaces as
:class:`~repro.errors.TransportError` instead of a partial frame.
Frames from one sender arrive in send order (TCP is FIFO per
connection), which is what lets a receiver realize latest-wins wave
semantics by simply applying frames as they arrive.
"""

from __future__ import annotations

import json
import struct
from typing import Optional

import numpy as np

from ..core.convergence import (
    AnyOf,
    HorizonRule,
    QuiescenceRule,
    ResidualRule,
    StoppingRule,
)
from ..errors import ProtocolError, TransportError

# -- frame types used by the shard transport (worker <-> hub) ----------
T_HELLO = 1
T_SPEC = 2
T_X0 = 3
T_WAVES = 4
T_STATES = 5
T_CTRL = 6
T_ACK = 7
T_ERR = 8

# -- peer directory, worker-to-worker and liveness frames --------------
#: direct peer handshake: the first frame on a worker→worker socket,
#: carrying the shared token and the sender's shard index
T_PEER_HELLO = 9
#: hub→workers peer directory: ``{"gen": n, "peers": [[shard, host,
#: port], ...]}`` — rebroadcast whole on every membership change, so a
#: late or rejoining worker levels from one frame
T_PEERS = 10
#: worker→hub liveness beacon: ``{"shard": i, "sweeps": n}`` — also
#: refreshes the hub's sweep counters between state publishes
T_HEARTBEAT = 11

# -- frame types used by the serving front end -------------------------
T_REQUEST = 16
T_RESPONSE = 17

#: refuse absurd frames instead of allocating gigabytes on a bad peer
MAX_FRAME = 1 << 30

_LEN = struct.Struct(">I")


def recv_exact(sock, n: int) -> bytes:
    """Read exactly *n* bytes or raise :class:`TransportError` on EOF."""
    chunks = []
    remaining = n
    while remaining > 0:
        try:
            chunk = sock.recv(min(remaining, 1 << 20))
        except OSError as exc:
            raise TransportError(f"socket read failed: {exc}") from exc
        if not chunk:
            raise TransportError(
                f"connection closed mid-frame ({remaining} of {n} "
                "bytes missing)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def send_frame(sock, ftype: int, payload: bytes) -> None:
    """Send one framed message (length prefix + type byte + payload)."""
    if len(payload) + 1 > MAX_FRAME:
        raise ProtocolError(f"frame too large ({len(payload)} bytes)")
    header = _LEN.pack(len(payload) + 1) + bytes([ftype])
    try:
        sock.sendall(header + payload)
    except OSError as exc:
        raise TransportError(f"socket write failed: {exc}") from exc


def recv_frame(sock) -> tuple[int, bytes]:
    """Receive one framed message; returns ``(type, payload)``."""
    (size,) = _LEN.unpack(recv_exact(sock, 4))
    if size < 1 or size > MAX_FRAME:
        raise ProtocolError(f"invalid frame length {size}")
    body = recv_exact(sock, size)
    return body[0], body[1:]


def encode_message(
    header: dict,
    arrays: Optional[dict] = None,
    blob: bytes = b"",
) -> bytes:
    """Pack a JSON header, named numpy arrays and an opaque blob."""
    arrays = arrays or {}
    meta_arrays = []
    buffers = []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        meta_arrays.append([name, arr.dtype.str, list(arr.shape)])
        buffers.append(arr.tobytes())
    meta = json.dumps({"h": header, "a": meta_arrays}).encode()
    return b"".join(
        [_LEN.pack(len(meta)), meta, *buffers, blob],
    )


def decode_message(payload: bytes) -> tuple[dict, dict, bytes]:
    """Inverse of :func:`encode_message`.

    Returns ``(header, arrays, blob)``; arrays are fresh writable
    copies decoupled from the frame buffer.
    """
    if len(payload) < 4:
        raise ProtocolError("message truncated before header length")
    (meta_len,) = _LEN.unpack(payload[:4])
    if meta_len > len(payload) - 4:
        raise ProtocolError("message header length exceeds payload")
    try:
        meta = json.loads(payload[4 : 4 + meta_len])
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"malformed message header: {exc}") from exc
    if not isinstance(meta, dict) or "h" not in meta:
        raise ProtocolError("message header missing 'h' field")
    offset = 4 + meta_len
    arrays = {}
    for entry in meta.get("a", []):
        try:
            name, dtype_str, shape = entry
            dtype = np.dtype(dtype_str)
            if dtype.hasobject:
                raise ValueError("object dtypes cannot cross the wire")
            shape = [int(s) for s in shape]
            if any(s < 0 for s in shape):
                raise ValueError("negative dimension")
            count = 1
            for s in shape:
                count *= s  # exact python int: no silent overflow
            nbytes = dtype.itemsize * count
        except (TypeError, ValueError) as exc:
            raise ProtocolError(f"bad array descriptor {entry!r}") from exc
        if nbytes > len(payload) - offset:
            raise ProtocolError(f"array {name!r} truncated")
        try:
            flat = np.frombuffer(
                payload, dtype=dtype, count=count, offset=offset
            )
            arrays[name] = flat.reshape(shape).copy()
        except ValueError as exc:
            raise ProtocolError(f"bad array {name!r}: {exc}") from exc
        offset += nbytes
    return meta["h"], arrays, payload[offset:]


def send_message(
    sock,
    ftype: int,
    header: dict,
    arrays: Optional[dict] = None,
    blob: bytes = b"",
) -> None:
    """Encode and send one header+arrays message as a single frame."""
    send_frame(sock, ftype, encode_message(header, arrays, blob))


def recv_message(sock) -> tuple[int, dict, dict, bytes]:
    """Receive one frame and decode it as a header+arrays message."""
    ftype, payload = recv_frame(sock)
    header, arrays, blob = decode_message(payload)
    return ftype, header, arrays, blob


# ----------------------------------------------------------------------
# stopping rules on the wire
# ----------------------------------------------------------------------
def stopping_to_spec(rule) -> Optional[dict]:
    """JSON-able spec of a reference-free stopping rule (or ``None``).

    Reference-needing rules are rejected: the remote side is the
    reference-free serving path by contract, and shipping a dense
    oracle over the wire would defeat it.
    """
    if rule is None:
        return None
    if isinstance(rule, dict):
        return rule
    if isinstance(rule, ResidualRule):
        return {"rule": "residual", "tol": rule.tol, "every": rule.every}
    if isinstance(rule, QuiescenceRule):
        return {
            "rule": "quiescence",
            "threshold": rule.threshold,
            "patience": rule.patience,
        }
    if isinstance(rule, HorizonRule):
        return {
            "rule": "horizon",
            "t_max": rule.t_max,
            "max_updates": rule.max_updates,
        }
    if isinstance(rule, AnyOf):
        return {
            "rule": "any_of",
            "rules": [stopping_to_spec(r) for r in rule.rules],
        }
    raise ProtocolError(
        f"stopping rule {rule!r} has no wire encoding (reference-"
        "needing rules cannot be served remotely)"
    )


def stopping_from_spec(spec) -> Optional[StoppingRule]:
    """Rebuild a stopping rule from its :func:`stopping_to_spec` form."""
    if spec is None:
        return None
    if isinstance(spec, StoppingRule):
        return spec
    if not isinstance(spec, dict):
        raise ProtocolError(f"malformed stopping spec {spec!r}")
    kind = spec.get("rule")
    if kind == "residual":
        return ResidualRule(
            tol=float(spec.get("tol", 1e-8)),
            every=int(spec.get("every", 1)),
        )
    if kind == "quiescence":
        return QuiescenceRule(
            threshold=float(spec.get("threshold", 1e-12)),
            patience=int(spec.get("patience", 2)),
        )
    if kind == "horizon":
        t_max = spec.get("t_max")
        if t_max is not None:
            t_max = float(t_max)
        max_updates = spec.get("max_updates")
        if max_updates is not None:
            max_updates = int(max_updates)
        return HorizonRule(t_max=t_max, max_updates=max_updates)
    if kind == "any_of":
        members = [stopping_from_spec(s) for s in spec.get("rules", [])]
        return AnyOf(*members)
    raise ProtocolError(f"unknown stopping rule kind {kind!r}")


__all__ = [
    "MAX_FRAME",
    "T_HELLO",
    "T_SPEC",
    "T_X0",
    "T_WAVES",
    "T_STATES",
    "T_CTRL",
    "T_ACK",
    "T_ERR",
    "T_REQUEST",
    "T_RESPONSE",
    "recv_exact",
    "send_frame",
    "recv_frame",
    "encode_message",
    "decode_message",
    "send_message",
    "recv_message",
    "stopping_to_spec",
    "stopping_from_spec",
]
