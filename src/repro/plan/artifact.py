"""Versioned, mmap-able on-disk plan artifacts (zero-copy load).

A built :class:`~repro.plan.plan.SolverPlan` is expensive (seconds to
minutes of factorization) but perfectly immutable, so it can be made
durable: :func:`save_plan` writes one packed file and
:func:`load_plan` maps it back as a plan whose solves are
**bitwise-identical** to the freshly built original.

File layout (little-endian, version :data:`FORMAT_VERSION`)::

    magic    8 bytes   b"REPROPLN"
    version  uint32
    hdr_len  uint64    byte length of the JSON header
    header   hdr_len   JSON (segment table, pickle record, plan_hash)
    pad      ...       zeros up to the next 64-byte boundary
    data     ...       64-byte-aligned raw array segments, then the
                       pickle blob (sha256-checked on load)

Every ``float64``/``int64`` array that matters — the packed fleet
template, slot-routing tables, per-subdomain ``x0``/``X`` response
blocks, the CSR triples and pivots of the SuperLU factors, subdomain
matrices — is externalized into an
aligned raw segment and recorded in the header with its dtype, shape
and memory order.  The remaining object structure (dataclasses, lists,
tuples, the plan key) goes into a small pickle whose array leaves are
*persistent references* into the segment table.

Loading opens one read-only :mod:`mmap` of the file and rebuilds each
segment with ``np.frombuffer`` — zero copies, so load cost is I/O
bound, not compute bound, and the arrays come back read-only (plans
are immutable by contract; sessions fork before mutating).  Array
aliasing inside the plan (e.g. ``fleet_template.locals[i] is
base_locals[i]``, ``plan.graph is plan.split.graph``) survives the
round trip: the pickler memoizes externalized arrays by identity and
the unpickler hands back one view per segment.  The fleet kernel's
wave-response stacks are stored once: each local's ``X`` is a row of
one of them, pickled as a ``(segment, row)`` reference and loaded as
a view of that row.

The format is versioned: any mismatch — bad magic, unknown version,
truncated data, checksum failure — raises
:class:`~repro.errors.PlanArtifactError` instead of returning garbage.
"""

from __future__ import annotations

import io
import json
import hashlib
import mmap as _mmap_module
import os
import pickle
import tempfile
from typing import Optional

import numpy as np

from ..core.fleet import FleetKernel
from ..errors import PlanArtifactError
from ..graph.electric import ElectricGraph
from ..graph.evs import SplitResult
from .plan import SolverPlan, compute_plan_hash

#: bump on any incompatible layout/semantic change; load_plan refuses
#: other versions (artifacts are a disposable cache — rebuild, never
#: migrate)
FORMAT_VERSION = 6

FORMAT_NAME = "repro-plan-artifact"

MAGIC = b"REPROPLN"

#: arrays smaller than this stay inline in the pickle (segment + header
#: overhead would exceed the payload)
INLINE_LIMIT = 256

_ALIGN = 64

_PID_TAG = "repro-seg"

#: the plan state that round-trips; everything else on SolverPlan is
#: runtime-only (lock, reference cache, reuse counters, from_cache)
#: and comes back at its dataclass default
_PLAN_FIELDS = (
    "mode",
    "graph",
    "split",
    "topology",
    "placement",
    "impedance",
    "network",
    "base_locals",
    "fleet_template",
    "a_mat",
    "base_b",
    "build_seconds",
    "key",
    "locals_b",
)

#: lazily-built caches dropped at save time (rebuilt on demand)
_DROPPED_CACHES = {
    ElectricGraph: ("_adjacency",),
    FleetKernel: ("_views",),
    SplitResult: ("_copy_index", "_copy_counts"),
}


def _align(n: int) -> int:
    return (n + _ALIGN - 1) & ~(_ALIGN - 1)


def _rebuild_slim(cls, state):
    """Reconstruct an object from its ``__dict__`` without ``__init__``.

    Mirrors default dataclass pickling (state restore, no
    re-validation) for the types whose lazy caches we drop.
    """
    obj = cls.__new__(cls)
    obj.__dict__.update(state)
    return obj


def _row_key(arr: np.ndarray) -> tuple:
    return (arr.__array_interface__["data"][0], arr.shape, arr.strides)


class _SegmentPickler(pickle.Pickler):
    """Pickler that externalizes large plain arrays into segments.

    ``persistent_id`` memoizes by object identity: an array reachable
    through several plan fields is stored once and every loaded
    reference aliases the same view.  A row of a stack registered with
    :meth:`share_rows` is stored as a reference to that row.
    """

    def __init__(self, file) -> None:
        super().__init__(file, protocol=5)
        self.segments: list[np.ndarray] = []
        self._seen: dict[int, int] = {}
        self._rows: dict[tuple, tuple[int, int]] = {}

    def _segment(self, obj: np.ndarray) -> int:
        pid = self._seen.get(id(obj))
        if pid is None:
            pid = len(self.segments)
            self._seen[id(obj)] = pid
            self.segments.append(obj)
        return pid

    def share_rows(self, stack: np.ndarray) -> None:
        """Store *stack* once; an array that is one of its rows (same
        memory, shape and strides) pickles as ``(segment, row)``."""
        pid = self._segment(stack)
        for i, row in enumerate(stack):
            self._rows[_row_key(row)] = (pid, i)

    def persistent_id(self, obj):
        if (
            type(obj) is np.ndarray
            and obj.dtype.fields is None
            and not obj.dtype.hasobject
            and obj.nbytes >= INLINE_LIMIT
        ):
            row = self._rows.get(_row_key(obj))
            if row is not None:
                return (_PID_TAG, *row)
            return (_PID_TAG, self._segment(obj))
        return None

    def reducer_override(self, obj):
        dropped = _DROPPED_CACHES.get(type(obj))
        if dropped is None:
            return NotImplemented
        state = {
            key: (None if key in dropped else value)
            for key, value in obj.__dict__.items()
        }
        return (_rebuild_slim, (type(obj), state))


class _SegmentUnpickler(pickle.Unpickler):
    def __init__(self, file, arrays: list[np.ndarray]) -> None:
        super().__init__(file)
        self._arrays = arrays

    def persistent_load(self, pid):
        tag, idx, *row = pid
        if (
            tag != _PID_TAG
            or not 0 <= idx < len(self._arrays)
            or (row and not 0 <= row[0] < len(self._arrays[idx]))
        ):
            raise PlanArtifactError(
                f"artifact references unknown segment {pid!r}"
            )
        return self._arrays[idx][row[0]] if row else self._arrays[idx]


def _writable_bytes(arr: np.ndarray) -> tuple[str, np.ndarray]:
    """``(order, c_contiguous_raw)`` for one segment.

    F-contiguous arrays (LAPACK factors) are written as the C-bytes of
    their transpose so the loader can rebuild the exact strides with a
    ``reshape(shape[::-1]).transpose()`` view — no copy either way.
    """
    if arr.flags.c_contiguous:
        return "C", arr
    if arr.flags.f_contiguous:
        return "F", arr.T
    return "C", np.ascontiguousarray(arr)


def _pack(plan: SolverPlan) -> tuple[list[np.ndarray], bytes]:
    """Pickle the plan state; return ``(segment arrays, pickle blob)``."""
    if not isinstance(plan, SolverPlan):
        raise PlanArtifactError(
            f"can only save SolverPlan objects, got {type(plan).__name__}"
        )
    state = {name: getattr(plan, name) for name in _PLAN_FIELDS}
    sink = io.BytesIO()
    pickler = _SegmentPickler(sink)
    # each local's X is a row of the fleet kernel's group stack
    for group in plan.fleet_template.kernel.groups:
        pickler.share_rows(group.X3)
    pickler.dump(state)
    return pickler.segments, sink.getvalue()


def _build_header(
    segments: list[np.ndarray], blob: bytes, plan: SolverPlan
) -> tuple[dict, list[np.ndarray]]:
    """Lay out the data region; return ``(header, raw write order)``.

    Segment offsets are *relative to the start of the data region*, so
    the header can be built before its own byte length is known.
    """
    records = []
    raws = []
    offset = 0
    for arr in segments:
        order, raw = _writable_bytes(arr)
        offset = _align(offset)
        records.append(
            {
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "order": order,
                "offset": offset,
                "nbytes": int(raw.nbytes),
            }
        )
        raws.append(raw)
        offset += int(raw.nbytes)
    blob_offset = _align(offset)
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "plan_hash": compute_plan_hash(plan.fingerprint(), plan.key),
        "mode": plan.mode,
        "n": plan.n,
        "n_parts": plan.n_parts,
        "segments": records,
        "pickle": {
            "offset": blob_offset,
            "nbytes": len(blob),
            "sha256": hashlib.sha256(blob).hexdigest(),
        },
        "data_nbytes": blob_offset + len(blob),
    }
    return header, raws


def _write_artifact(plan: SolverPlan, out) -> dict:
    """Serialize *plan* into binary file object *out*; return header."""
    segments, blob = _pack(plan)
    header, raws = _build_header(segments, blob, plan)
    header_bytes = json.dumps(header, separators=(",", ":")).encode()
    preamble = (
        MAGIC
        + FORMAT_VERSION.to_bytes(4, "little")
        + len(header_bytes).to_bytes(8, "little")
    )
    data_start = _align(len(preamble) + len(header_bytes))
    out.write(preamble)
    out.write(header_bytes)
    out.write(b"\0" * (data_start - len(preamble) - len(header_bytes)))
    pos = 0
    for record, raw in zip(header["segments"], raws):
        out.write(b"\0" * (record["offset"] - pos))
        out.write(raw.data)
        pos = record["offset"] + record["nbytes"]
    out.write(b"\0" * (header["pickle"]["offset"] - pos))
    out.write(blob)
    plan._artifact_nbytes = _payload_nbytes(header)
    return header


def save_plan(plan: SolverPlan, path) -> dict:
    """Write *plan* to *path* as one packed artifact file.

    The write is atomic (temp file + ``os.replace`` in the target
    directory), so readers never observe a half-written artifact.
    Returns the artifact header (segment table, sizes, ``plan_hash``).
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as out:
            header = _write_artifact(plan, out)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return header


def plan_to_bytes(plan: SolverPlan) -> bytes:
    """The artifact byte string of *plan* (what ``save_plan`` writes)."""
    sink = io.BytesIO()
    _write_artifact(plan, sink)
    return sink.getvalue()


def _payload_nbytes(header: dict) -> int:
    """Segment bytes plus pickle bytes, off an artifact header."""
    return int(header["pickle"]["nbytes"]) + sum(
        int(rec["nbytes"]) for rec in header["segments"]
    )


def plan_nbytes(plan: SolverPlan) -> int:
    """Exact artifact payload size of *plan* in bytes.

    Segment bytes plus pickle bytes — the number the byte-budget LRU
    tiers (:class:`~repro.runtime.server.PlanStore` ``max_bytes=``,
    :class:`~repro.plan.diskstore.DiskPlanStore`) account with.

    A plan that was saved or loaded already has the count — it is in
    the header that was written or parsed — so weighing it packs
    nothing: a disk hit must not pickle the plan and read every mapped
    segment to return one integer.  Any other plan is packed once.
    """
    nbytes = getattr(plan, "_artifact_nbytes", None)
    if nbytes is None:
        segments, blob = _pack(plan)
        nbytes = sum(int(arr.nbytes) for arr in segments) + len(blob)
        plan._artifact_nbytes = nbytes
    return nbytes


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------
def _parse_preamble(buf: bytes) -> tuple[int, int]:
    """Validate magic/version; return ``(version, header_len)``."""
    if len(buf) < 20:
        raise PlanArtifactError(
            f"artifact truncated: {len(buf)} bytes is shorter than the "
            "20-byte preamble"
        )
    if buf[:8] != MAGIC:
        raise PlanArtifactError(
            f"not a plan artifact (magic {buf[:8]!r}, expected {MAGIC!r})"
        )
    version = int.from_bytes(buf[8:12], "little")
    if version != FORMAT_VERSION:
        raise PlanArtifactError(
            f"unsupported artifact version {version} (this build reads "
            f"version {FORMAT_VERSION}); rebuild the plan — artifacts "
            "are a disposable cache, not a migration target"
        )
    header_len = int.from_bytes(buf[12:20], "little")
    return version, header_len


def _parse_header(buf, *, require_data: bool = True) -> tuple[dict, int]:
    """Parse+validate preamble/header; return ``(header, data_start)``.

    ``require_data=False`` skips the data-region length check, for
    callers holding only the preamble+header bytes (:func:`peek_header`).
    """
    _, header_len = _parse_preamble(buf[:20])
    if len(buf) < 20 + header_len:
        raise PlanArtifactError(
            "artifact truncated inside the header "
            f"(need {20 + header_len} bytes, have {len(buf)})"
        )
    try:
        header = json.loads(bytes(buf[20 : 20 + header_len]))
    except ValueError as exc:
        raise PlanArtifactError(f"corrupt artifact header: {exc}") from exc
    if header.get("format") != FORMAT_NAME:
        raise PlanArtifactError(
            f"unexpected artifact format {header.get('format')!r}"
        )
    data_start = _align(20 + header_len)
    if require_data and len(buf) < data_start + int(header["data_nbytes"]):
        raise PlanArtifactError(
            "artifact truncated in the data region "
            f"(need {data_start + int(header['data_nbytes'])} bytes, "
            f"have {len(buf)})"
        )
    return header, data_start


def _segment_views(header: dict, buf, data_start: int) -> list[np.ndarray]:
    arrays = []
    for rec in header["segments"]:
        dtype = np.dtype(rec["dtype"])
        shape = tuple(rec["shape"])
        count = 1
        for dim in shape:
            count *= int(dim)
        arr = np.frombuffer(
            buf, dtype=dtype, count=count,
            offset=data_start + int(rec["offset"]),
        )
        if rec["order"] == "F":
            arr = arr.reshape(shape[::-1]).transpose()
        else:
            arr = arr.reshape(shape)
        arrays.append(arr)
    return arrays


def _unpack(header: dict, buf, data_start: int) -> SolverPlan:
    rec = header["pickle"]
    start = data_start + int(rec["offset"])
    blob = bytes(buf[start : start + int(rec["nbytes"])])
    digest = hashlib.sha256(blob).hexdigest()
    if digest != rec["sha256"]:
        raise PlanArtifactError(
            "artifact pickle checksum mismatch "
            f"(stored {rec['sha256'][:12]}..., got {digest[:12]}...) — "
            "the file is corrupt; delete and rebuild"
        )
    arrays = _segment_views(header, buf, data_start)
    try:
        state = _SegmentUnpickler(io.BytesIO(blob), arrays).load()
    except PlanArtifactError:
        raise
    except Exception as exc:
        raise PlanArtifactError(
            f"corrupt artifact object graph: {type(exc).__name__}: {exc}"
        ) from exc
    missing = [f for f in _PLAN_FIELDS if f not in state]
    if missing:
        raise PlanArtifactError(
            f"artifact is missing plan fields {missing!r}"
        )
    plan = SolverPlan(**state)
    plan._artifact_nbytes = _payload_nbytes(header)
    return plan


def plan_from_bytes(data: bytes) -> SolverPlan:
    """Rebuild a plan from :func:`plan_to_bytes` output.

    Array segments are zero-copy read-only views into *data*.
    """
    header, data_start = _parse_header(data)
    return _unpack(header, data, data_start)


def peek_header(path) -> dict:
    """Read and validate only the JSON header of an artifact file."""
    with open(os.fspath(path), "rb") as f:
        pre = f.read(20)
        _, header_len = _parse_preamble(pre)
        header_bytes = f.read(header_len)
    if len(header_bytes) < header_len:
        raise PlanArtifactError("artifact truncated inside the header")
    return _parse_header(pre + header_bytes, require_data=False)[0]


def load_plan(path, *, mmap: bool = True) -> SolverPlan:
    """Load a plan artifact written by :func:`save_plan`.

    With ``mmap=True`` (the default) the file is mapped read-only
    once and every array segment is a zero-copy ``np.frombuffer``
    view into the mapping — load cost is I/O bound and resident
    memory is shared between processes loading the same artifact.
    ``mmap=False`` reads the file into memory instead
    (bitwise-identical arrays, no open mapping).

    Solves on the loaded plan are bitwise-identical to solves on the
    plan that was saved.  Raises
    :class:`~repro.errors.PlanArtifactError` on any corruption,
    truncation or version mismatch.
    """
    path = os.fspath(path)
    try:
        f = open(path, "rb")
    except OSError as exc:
        raise PlanArtifactError(
            f"cannot open plan artifact {path!r}: {exc}"
        ) from exc
    with f:
        if not mmap:
            return plan_from_bytes(f.read())
        try:
            buf = _mmap_module.mmap(
                f.fileno(), 0, access=_mmap_module.ACCESS_READ
            )
        except (ValueError, OSError) as exc:
            raise PlanArtifactError(
                f"cannot map plan artifact {path!r}: {exc}"
            ) from exc
    header, data_start = _parse_header(buf)
    return _unpack(header, buf, data_start)


def artifact_plan_hash(source) -> Optional[str]:
    """The ``plan_hash`` recorded in an artifact file or byte string."""
    if isinstance(source, (bytes, bytearray, memoryview)):
        header, _ = _parse_header(bytes(source))
    else:
        header = peek_header(source)
    return header.get("plan_hash")


__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "INLINE_LIMIT",
    "artifact_plan_hash",
    "load_plan",
    "peek_header",
    "plan_from_bytes",
    "plan_nbytes",
    "plan_to_bytes",
    "save_plan",
]
