"""Transports: machine-spanning shard mailboxes behind one protocol.

The multiprocess runtime (:mod:`repro.runtime.multiproc`) runs one
worker per shard against two tiny port interfaces defined here:

* :class:`WorkerPort` — what the shard loop needs: a latest-wins
  snapshot of its incoming wave slots, ``post_waves`` delivery along
  its :class:`~repro.plan.shard.MailboxSpec` channels, state
  publication, and the coordinator's control words;
* :class:`CoordinatorPort` — what the coordinator needs: epoch and
  stop control, right-hand-side/wave publication, and consistent
  gathers of the published states.

A :class:`Transport` binds the two sides together.  This module holds
the interfaces, the control-word layout both fabrics share, and

:class:`ShmTransport`
    The PR-4 ``multiprocessing.shared_memory`` fabric, refactored out
    of the runtime verbatim: one global wave array, single writer per
    cell, a delivery is an aligned 8-byte overwrite.  Workers must
    share the coordinator's machine.

The one socket fabric, :class:`~repro.net.mesh.MeshTransport`, lives in
:mod:`repro.net.mesh`; :func:`resolve_transport` and
:func:`open_worker_port` resolve both by name.

Torn reads cannot occur on either fabric: shm cells are aligned
8-byte values with one writer, and socket frames are applied whole
under the GIL (a reader thread's fancy-index scatter and the solve
loop's snapshot copy are serialized).
"""

from __future__ import annotations

import os
import secrets
import time
import weakref
from functools import partial
from multiprocessing import shared_memory

import numpy as np

from ..errors import ConfigurationError
from ..plan.shard import MailboxSpec, ShardSpec

# ----------------------------------------------------------------------
# control-block layout (int64 words, single-writer per cell); shared by
# both transports — the mesh hub keeps a coordinator-side mirror with
# the identical layout
# ----------------------------------------------------------------------
STOP = 0  # coordinator -> workers: the newest epoch that has ended
EPOCH = 1  # coordinator -> workers: bumped to start an epoch
SHUTDOWN = 2  # coordinator -> workers: exit the idle loop
ERR = 3  # workers -> coordinator: 1 + index of a failed shard
PER_SHARD = 4  # then: sweeps[n], acks[n]

#: an idle shm worker re-reads its control words this often unasked
#: (a coordinator that died posts no wake)
_IDLE_PATIENCE = 0.25


def ctrl_size(n_shards: int) -> int:
    return PER_SHARD + 2 * n_shards


def sweep_cell(i: int) -> int:
    return PER_SHARD + i


def ack_cell(n_shards: int, i: int) -> int:
    return PER_SHARD + n_shards + i


class EdgeMailbox:
    """Lock-free latest-wins wave channel of one directed shard pair.

    Binds a :class:`~repro.plan.shard.MailboxSpec` to a wave array.
    :meth:`post` is the entire delivery protocol: one fancy-indexed
    scatter of the sender's outgoing waves into the receiver's slots —
    no queue, no lock, later posts simply overwrite earlier ones,
    exactly the per-message FIFO-overwrite semantics the simulator's
    ``receive_batch`` implements.
    """

    __slots__ = ("spec", "waves")

    def __init__(self, spec: MailboxSpec, waves: np.ndarray) -> None:
        self.spec = spec
        self.waves = waves

    def post(self, outgoing: np.ndarray) -> None:
        """Deliver the channel's share of a sweep's outgoing waves."""
        self.waves[self.spec.dest_slots] = outgoing[self.spec.emit_pos]

    def peek(self) -> np.ndarray:
        """Snapshot of the channel's current slot values (reader side)."""
        return self.waves[self.spec.dest_slots].copy()


# ----------------------------------------------------------------------
# the port interfaces
# ----------------------------------------------------------------------
class CoordinatorPort:
    """Coordinator-side handle of a bound transport."""

    def begin_epoch(self, epoch: int) -> None:
        """Publish the new epoch number (epochs only ever grow)."""
        raise NotImplementedError

    def signal_stop(self, epoch: int) -> None:
        """End *epoch*: the STOP word carries the epoch it ends.

        A STOP left over from epoch ``N-1`` can therefore never end
        epoch ``N``, and one raised for ``N`` before a descheduled
        worker even saw ``N`` start still ends it for that worker —
        no ordering between the two control words is needed.
        """
        raise NotImplementedError

    def shutdown(self) -> None:
        raise NotImplementedError

    def write_x0(self, x0: np.ndarray) -> None:
        """Publish the full zero-wave state vector to the workers."""
        raise NotImplementedError

    def write_waves(self, waves: np.ndarray) -> None:
        """Publish the full wave vector (warm start / reset)."""
        raise NotImplementedError

    def read_waves(self) -> np.ndarray:
        """Snapshot of the global wave vector (latest published)."""
        raise NotImplementedError

    def read_states(self) -> np.ndarray:
        """Snapshot of the concatenated published shard states (each
        shard's port and halo rows, in the look layout)."""
        raise NotImplementedError

    def read_snapshots(self) -> np.ndarray:
        """The wave snapshots the published states came from, each
        shard's at its own slots (what an answer is built from)."""
        raise NotImplementedError

    def sweep_counts(self) -> np.ndarray:
        raise NotImplementedError

    def acks(self) -> np.ndarray:
        raise NotImplementedError

    def failed_shard(self) -> int:
        """``1 + index`` of a failed shard, or 0 when none failed."""
        raise NotImplementedError

    def error_detail(self) -> str:
        return ""

    def lost_workers(self) -> list:
        """Shards whose connection dropped (mesh); always [] for shm."""
        return []

    def connected_shards(self):
        """Shards currently attached, or ``None`` when not tracked.

        Socket transports report the shards with a live connection;
        the shm fabric has no notion of attachment and returns
        ``None`` (meaning "assume all present").
        """
        return None

    def stale_workers(self) -> list:
        """Shards whose liveness signal has gone quiet (mesh only)."""
        return []

    def install_obs(self, registry) -> None:
        """Attach a metric registry for coordinator-side counters."""

    def worker_metrics(self) -> dict:
        """Latest worker metric snapshots, ``shard -> jsonable``.

        Socket transports collect these from the snapshots workers
        piggyback on their state/heartbeat frames; the shm fabric has
        no byte channel and reports none (per-shard sweep progress is
        synthesized coordinator-side from ``sweep_counts`` instead).
        """
        return {}

    def close(self) -> None:
        raise NotImplementedError


class WorkerPort:
    """Worker-side handle: everything one shard loop touches."""

    #: True when the coordinator asked workers to run with telemetry
    #: on (socket transports level the flag in the SPEC frame)
    obs_enabled = False

    def install_obs(self, registry) -> None:
        """Attach a worker-side metric registry (transport counters)."""

    def shutdown_requested(self) -> bool:
        raise NotImplementedError

    def current_epoch(self) -> int:
        raise NotImplementedError

    def idle_wait(self, idle_sleep: float) -> None:
        """Wait between two epochs: a nap, unless the fabric can wake."""
        time.sleep(idle_sleep)

    def stop_requested(self, epoch: int) -> bool:
        """True once the coordinator has ended *epoch* (or a later one)."""
        raise NotImplementedError

    def read_x0(self) -> np.ndarray:
        raise NotImplementedError

    def wave_snapshot(self) -> np.ndarray:
        """One latest-wins copy of this shard's incoming wave slots."""
        raise NotImplementedError

    def post_waves(self, out: np.ndarray) -> None:
        """Deliver one sweep's outgoing waves (loopback + cross-shard)."""
        raise NotImplementedError

    def record_sweeps(self, total: int) -> None:
        raise NotImplementedError

    def publish_states(
        self, states: np.ndarray, waves: np.ndarray, sweeps: int
    ) -> None:
        """Publish the shard's port and halo states and the wave
        snapshot *waves* they came from: once per epoch, after STOP and
        before the ack — the only time a row below the ports is
        computed."""
        raise NotImplementedError

    def ack(self, epoch: int) -> None:
        raise NotImplementedError

    def mark_error(self, detail: str = "") -> None:
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


class Transport:
    """Factory for one coordinator port plus per-shard worker ports."""

    name = "abstract"

    #: transports that re-snapshot a (re)joining worker from the
    #: coordinator's mirrors can survive a lost shard mid-solve; the
    #: runner enables automatic recovery when this is set
    supports_recovery = False

    def bind(
        self,
        specs,
        *,
        n_slots: int,
        n_states: int,
        idle_sleep: float,
        obs_enabled: bool = False,
        wakes=(),
    ) -> CoordinatorPort:
        """Set the fabric up for *specs*; *wakes* holds each local
        worker's wake semaphore, by shard (the shm fabric posts them,
        sockets need none)."""
        raise NotImplementedError

    def worker_descriptor(self, index: int) -> tuple:
        """Small handle a worker process opens its port from."""
        raise NotImplementedError

    def close(self) -> None:
        raise NotImplementedError


# ----------------------------------------------------------------------
# shared-memory transport (the PR-4 fabric, refactored behind the port)
# ----------------------------------------------------------------------
def _attach_shm(name: str) -> shared_memory.SharedMemory:
    """Attach to a coordinator-owned segment from a worker.

    Only the coordinator unlinks segments.  On Python 3.13+ the worker
    attaches untracked (``track=False``); earlier versions register the
    attach with the *shared* resource tracker (workers inherit the
    coordinator's tracker through the spawn machinery), whose cache is
    a set — the duplicate registration is harmless and the
    coordinator's single ``unlink`` retires it.  Do **not** unregister
    here: that would remove the name from the shared cache early and
    make the coordinator's later unlink crash the tracker loop.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: tracked attach (see above)
        return shared_memory.SharedMemory(name=name)


def _cleanup_segments(segments: list) -> None:
    """Close+unlink owned segments (idempotent; weakref finalizer)."""
    for shm in segments:
        try:
            shm.close()
            shm.unlink()
        except FileNotFoundError:
            pass
        except Exception:  # pragma: no cover - best-effort teardown
            pass


class ShmTransport(Transport):
    """Shared-memory fabric: one machine, zero-copy wave delivery."""

    name = "shm"

    def __init__(self) -> None:
        self._segments: list = []
        self._base = ""
        self._names: dict = {}
        self._sizes: dict = {}
        self._n_slots = 0
        self._n_states = 0
        self._idle_sleep = 0.001
        self._wake: list = []
        self._finalizer = None

    def _create(self, key: str, size: int) -> memoryview:
        """A zeroed coordinator-owned segment's buffer, by *key*."""
        shm = shared_memory.SharedMemory(
            create=True, size=size, name=f"{self._base}-{key}"
        )
        self._segments.append(shm)  # the finalizer's list: unlinked
        self._names[key] = shm.name
        self._sizes[key] = size
        return shm.buf

    def bind(
        self,
        specs,
        *,
        n_slots: int,
        n_states: int,
        idle_sleep: float,
        obs_enabled: bool = False,
        wakes=(),
    ) -> "ShmCoordinatorPort":
        if self._finalizer is not None:
            raise ConfigurationError("ShmTransport is already bound")
        self._n_slots = int(n_slots)
        self._n_states = int(n_states)
        self._idle_sleep = float(idle_sleep)
        n_shards = len(specs)
        self._base = f"dtm{os.getpid():x}{secrets.token_hex(4)}"
        self._finalizer = weakref.finalize(
            self, _cleanup_segments, self._segments
        )
        waves = np.ndarray(
            (self._n_slots,),
            dtype=np.float64,
            buffer=self._create("waves", max(self._n_slots, 1) * 8),
        )
        x0 = np.ndarray(
            (self._n_states,),
            dtype=np.float64,
            buffer=self._create("x0", max(self._n_states, 1) * 8),
        )
        states = np.ndarray(
            (self._n_states,),
            dtype=np.float64,
            buffer=self._create("states", max(self._n_states, 1) * 8),
        )
        snaps = np.ndarray(
            (self._n_slots,),
            dtype=np.float64,
            buffer=self._create("snaps", max(self._n_slots, 1) * 8),
        )
        ctrl = np.ndarray(
            (ctrl_size(n_shards),),
            dtype=np.int64,
            buffer=self._create("ctrl", ctrl_size(n_shards) * 8),
        )
        # each shard's payload, encoded straight into a segment of its
        # own: written here once, mapped by its worker for life, and
        # written by nobody after this loop (the worker's views of it
        # are read-only)
        for spec in specs:
            spec.encode_payload(partial(self._create, f"spec{spec.index}"))
        # the workers' own semaphores, posted with every EPOCH bump (see
        # ShmWorkerPort.idle_wait); the runner's list, so a respawned
        # worker's semaphore replaces its predecessor's in place
        self._wake = wakes
        return ShmCoordinatorPort(
            self, waves, x0, states, snaps, ctrl, n_shards
        )

    def worker_descriptor(self, index: int) -> tuple:
        """Names and sizes only: the shard itself stays in its segment,
        so a job pipe carries under a kilobyte per worker.  No wake
        semaphore: the worker opens its port with its own."""
        names = {
            key: self._names[key]
            for key in ("waves", "x0", "states", "snaps", "ctrl")
        }
        names["spec"] = self._names[f"spec{index}"]
        return (
            "shm",
            names,
            self._sizes[f"spec{index}"],
            self._n_slots,
            self._n_states,
            self._idle_sleep,
        )

    def wake_workers(self) -> None:
        for wake in self._wake:
            wake.release()

    def close(self) -> None:
        if self._finalizer is not None:
            self._finalizer()  # close+unlink, exactly once
        self._wake = []


class ShmCoordinatorPort(CoordinatorPort):
    """Direct views over the shared segments (single machine)."""

    def __init__(
        self,
        transport: ShmTransport,
        waves: np.ndarray,
        x0: np.ndarray,
        states: np.ndarray,
        snaps: np.ndarray,
        ctrl: np.ndarray,
        n_shards: int,
    ) -> None:
        self._transport = transport
        self._waves = waves
        self._x0 = x0
        self._states = states
        self._snaps = snaps
        self._ctrl = ctrl
        self._n_shards = int(n_shards)

    def begin_epoch(self, epoch: int) -> None:
        self._ctrl[EPOCH] = int(epoch)
        self._transport.wake_workers()

    def signal_stop(self, epoch: int) -> None:
        self._ctrl[STOP] = int(epoch)

    def shutdown(self) -> None:
        self._ctrl[SHUTDOWN] = 1
        self._transport.wake_workers()

    def write_x0(self, x0: np.ndarray) -> None:
        self._x0[:] = x0

    def write_waves(self, waves: np.ndarray) -> None:
        self._waves[:] = waves

    def read_waves(self) -> np.ndarray:
        return np.array(self._waves)

    def read_states(self) -> np.ndarray:
        return np.array(self._states)

    def read_snapshots(self) -> np.ndarray:
        return np.array(self._snaps)

    def sweep_counts(self) -> np.ndarray:
        cells = [sweep_cell(i) for i in range(self._n_shards)]
        return np.array(self._ctrl[cells], dtype=np.int64)

    def acks(self) -> np.ndarray:
        cells = [ack_cell(self._n_shards, i) for i in range(self._n_shards)]
        return np.array(self._ctrl[cells], dtype=np.int64)

    def failed_shard(self) -> int:
        return int(self._ctrl[ERR])

    def close(self) -> None:
        self._transport.close()


class ShmWorkerPort(WorkerPort):
    """Worker-side views over the attached shared segments."""

    def __init__(
        self,
        spec: ShardSpec,
        shms: dict,
        n_slots: int,
        n_states: int,
        wake,
    ) -> None:
        n_shards = spec.n_shards
        i = spec.index
        self._shms = shms
        self._wake = wake
        self._waves = np.ndarray(
            (n_slots,), dtype=np.float64, buffer=shms["waves"].buf
        )
        self._x0 = np.ndarray(
            (n_states,), dtype=np.float64, buffer=shms["x0"].buf
        )
        self._states = np.ndarray(
            (n_states,), dtype=np.float64, buffer=shms["states"].buf
        )
        self._snaps = np.ndarray(
            (n_slots,), dtype=np.float64, buffer=shms["snaps"].buf
        )
        self._ctrl = np.ndarray(
            (ctrl_size(n_shards),), dtype=np.int64, buffer=shms["ctrl"].buf
        )
        self._slot_sl = slice(spec.slot_lo, spec.slot_hi)
        self._state_sl = slice(spec.state_lo, spec.state_hi)
        self._loopback = EdgeMailbox(spec.loopback, self._waves)
        self._outboxes = [
            EdgeMailbox(box, self._waves) for box in spec.outboxes
        ]
        self._index = i
        self._sweep_cell = sweep_cell(i)
        self._ack_cell = ack_cell(n_shards, i)

    def shutdown_requested(self) -> bool:
        return bool(self._ctrl[SHUTDOWN])

    def current_epoch(self) -> int:
        return int(self._ctrl[EPOCH])

    def idle_wait(self, idle_sleep: float) -> None:
        """Block until the coordinator posts this shard's wake.

        Not a poll: while the coordinator computes between two epochs,
        a polling worker's wake-ups land on the core it is not on, and
        both workers start the next epoch stacked there (PERFORMANCE.md,
        "Stopping without a barrier").  A leftover wake costs one empty
        pass of the idle loop.
        """
        self._wake.acquire(timeout=_IDLE_PATIENCE)

    def stop_requested(self, epoch: int) -> bool:
        return int(self._ctrl[STOP]) >= epoch

    def read_x0(self) -> np.ndarray:
        return self._x0[self._state_sl]

    def wave_snapshot(self) -> np.ndarray:
        return np.array(self._waves[self._slot_sl])

    def post_waves(self, out: np.ndarray) -> None:
        self._loopback.post(out)
        for box in self._outboxes:
            box.post(out)

    def record_sweeps(self, total: int) -> None:
        self._ctrl[self._sweep_cell] = int(total)

    def publish_states(
        self, states: np.ndarray, waves: np.ndarray, sweeps: int
    ) -> None:
        self._states[self._state_sl] = states
        self._snaps[self._slot_sl] = waves

    def ack(self, epoch: int) -> None:
        self._ctrl[self._ack_cell] = int(epoch)

    def mark_error(self, detail: str = "") -> None:
        self._ctrl[ERR] = self._index + 1

    def close(self) -> None:
        # (the mailbox tables are views of the spec segment)
        self._loopback = None
        self._outboxes = []
        for shm in self._shms.values():
            try:
                shm.close()
            except Exception:  # pragma: no cover - best-effort
                pass


# ----------------------------------------------------------------------
# resolution helpers
# ----------------------------------------------------------------------
def resolve_transport(transport) -> Transport:
    """Normalize a transport spec: None/str name/instance → instance."""
    if transport is None or transport == "shm":
        return ShmTransport()
    if transport == "mesh":
        from .mesh import MeshTransport  # avoid an import cycle

        return MeshTransport()
    if isinstance(transport, Transport):
        return transport
    raise ConfigurationError(
        f"unknown transport {transport!r}; use 'shm', 'mesh' or a "
        "Transport instance"
    )


def open_worker_port(descriptor, wake=None) -> tuple:
    """Open a worker port from a transport's worker descriptor.

    *wake* is the semaphore the worker was born with: an shm port
    blocks on it between epochs and needs it, a socket port has no use
    for it.  Returns ``(spec, port, idle_sleep)`` — everything the
    generic shard loop in :mod:`repro.runtime.shard_worker` needs.
    """
    kind = descriptor[0]
    if kind == "shm":
        _, names, spec_size, n_slots, n_states, idle = descriptor
        if wake is None:
            raise ConfigurationError(
                "an shm worker port needs the worker's wake semaphore"
            )
        shms = {key: _attach_shm(name) for key, name in names.items()}
        # (a segment may be rounded up to whole pages: slice it)
        spec = ShardSpec.from_payload(shms["spec"].buf[:spec_size])
        port = ShmWorkerPort(spec, shms, n_slots, n_states, wake)
        return spec, port, idle
    if kind == "mesh":
        from .mesh import MeshWorkerPort  # avoid an import cycle

        _, host, tcp_port, token, index, listen = descriptor
        port = MeshWorkerPort(
            host, tcp_port, token, index, listen_port=listen
        )
        return port.spec, port, port.idle_sleep
    raise ConfigurationError(f"unknown worker descriptor kind {kind!r}")


__all__ = [
    "STOP",
    "EPOCH",
    "SHUTDOWN",
    "ERR",
    "PER_SHARD",
    "ctrl_size",
    "sweep_cell",
    "ack_cell",
    "EdgeMailbox",
    "CoordinatorPort",
    "WorkerPort",
    "Transport",
    "ShmTransport",
    "ShmCoordinatorPort",
    "ShmWorkerPort",
    "resolve_transport",
    "open_worker_port",
]
