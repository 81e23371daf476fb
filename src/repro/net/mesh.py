"""The socket fabric: a control hub, direct neighbor sockets, recovery.

The paper's transmission model is fully decentralized — subdomains
exchange waves with their neighbors directly, and no central party
touches the data path.  :class:`MeshTransport` realizes that over the
wire framing of :mod:`repro.net.wire`, with no shared address space: a
remote machine joins with ``python -m repro.net.worker`` given host,
port and token.

* **Hub.**  The coordinator side (:class:`_Hub`) owns the
  authoritative wave/x0/state/control mirrors, accepts worker
  connections, and carries what the paper assigns the coordinator:
  control words, stop looks, RHS swaps, state gathers.

* **Direct neighbor sockets.**  Every worker opens a listen socket and
  publishes its address in the HELLO frame; the hub rebroadcasts the
  full peer directory (``T_PEERS``) on every membership change.  A
  background dialer connects to the peers a shard emits to, with
  exponential backoff, so startup order never matters.  Once a direct
  connection is up, ``post_waves`` ships ``T_WAVES`` frames
  peer-to-peer.  A sender with *no* peer socket to a destination —
  not dialled yet, broken, or unreachable (NAT) — sends the same frame
  to the hub, which forwards it; the choice is made per frame from
  what the sender can observe, never from a setting.

* **Failure recovery.**  Workers heartbeat (``T_HEARTBEAT``) through
  the hub socket; the hub tracks per-shard liveness and exposes
  :meth:`~_Hub.stale_workers`.  A worker that dies is respawned by
  the runner and re-registers: :meth:`_Hub._register` levels it from
  the coordinator's mirrors (spec, x0, its current wave slice, control
  words) — the re-snapshot — and broadcasts a new peer directory
  generation so neighbors redial it.  A worker levelled while a stop
  is in flight sees that epoch already ended, publishes its snapshot
  state and acks; the stopping decision is only ever taken on the
  gathered state, so recovery can cost extra looks but never a wrong
  answer.

Latest-wins stays intact on both paths: each incoming slot has exactly
one emitting peer, each frame is applied whole on receive, and
per-connection FIFO makes the newest frame win, with no queue growth.
A sender switches between the direct and hub path only when a socket
appears or dies, and any momentarily stale slot is overwritten by the
very next post — the asynchronous relaxation tolerates it by
construction (Avron et al. 2013), and the coordinator's residual,
measured on the quiesced state, would catch it regardless.
"""

from __future__ import annotations

import secrets
import socket
import threading
import time
from typing import Optional

import numpy as np

from ..errors import (
    ConfigurationError,
    ProtocolError,
    TransportError,
    ValidationError,
)
from ..plan.shard import ShardSpec
from . import wire
from .transport import (
    EPOCH,
    ERR,
    PER_SHARD,
    SHUTDOWN,
    STOP,
    CoordinatorPort,
    Transport,
    WorkerPort,
    ack_cell,
    ctrl_size,
    sweep_cell,
)

#: default seconds of heartbeat silence before a connected worker is
#: reported stale (hung-but-connected; dropped sockets surface faster
#: via ``lost_workers`` and dead processes via the runner's waitpid)
LIVENESS_TIMEOUT = 5.0

#: workers heartbeat at most this often (seconds); piggybacked on the
#: control polls the shard loop already performs, so an idle worker
#: stays visibly alive between epochs
HEARTBEAT_EVERY = 0.2

#: how long ``_Hub.close`` waits for its accept thread to end
_ACCEPT_JOIN_S = 2.0


class _Hub:
    """Coordinator-side switchboard of the socket fabric.

    Owns the authoritative wave/x0/state/control mirrors (the same
    layout the shm transport shares), accepts worker connections,
    applies worker publishes, forwards ``T_WAVES`` frames for senders
    without a peer socket, keeps the peer directory (listen addresses
    from the HELLO frames, rebroadcast whole as ``T_PEERS`` on every
    membership change) and tracks heartbeat liveness.  Single-writer
    discipline is preserved: a frame from shard *k* only touches cells
    shard *k* owns.  A worker that joins late (or reconnects) receives
    a full state snapshot — spec, x0, its wave slice and the current
    control words — so control state is levelled, not merely streamed.
    """

    def __init__(
        self,
        specs,
        *,
        host: str,
        port: int,
        token: str,
        n_slots: int,
        n_states: int,
        idle_sleep: float,
        liveness_timeout: float,
        obs_enabled: bool = False,
    ) -> None:
        self.token = token
        self.obs_enabled = bool(obs_enabled)
        #: shard -> latest jsonable metric snapshot the worker
        #: piggybacked on a state/heartbeat frame
        self.worker_obs: dict = {}
        self._c_rx_waves = None
        self._c_rx_states = None
        self.n_shards = len(specs)
        self.n_slots = int(n_slots)
        self.n_states = int(n_states)
        self.idle_sleep = float(idle_sleep)
        self.liveness_timeout = float(liveness_timeout)
        #: each shard's SPEC blob, encoded once: a worker that joins,
        #: rejoins or is respawned gets the whole shard again
        self.payloads = [spec.encode_payload() for spec in specs]
        self.slot_bounds = [
            (int(spec.slot_lo), int(spec.slot_hi)) for spec in specs
        ]
        self.state_bounds = [
            (int(spec.state_lo), int(spec.state_hi)) for spec in specs
        ]
        self.waves = np.zeros(self.n_slots)
        self.x0 = np.zeros(self.n_states)
        self.states = np.zeros(self.n_states)
        #: the wave snapshot each shard's published states came from
        self.snaps = np.zeros(self.n_slots)
        self.ctrl = np.zeros(ctrl_size(self.n_shards), dtype=np.int64)
        self.err_text = ""
        self.lock = threading.RLock()
        self.closing = False
        self.lost: set = set()
        self._conns: dict = {}
        self.peer_addrs: dict = {}  # shard -> (host, port)
        self.peer_gen = 0
        self.last_seen: dict = {}  # shard -> time.monotonic()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen(self.n_shards + 2)
        self._listener = listener
        self._accept: Optional[threading.Thread] = None
        self.address = listener.getsockname()

    def start(self) -> None:
        self._accept = threading.Thread(
            target=self._accept_loop, name="dtm-net-accept", daemon=True
        )
        self._accept.start()

    # -- connection lifecycle ------------------------------------------
    def _accept_loop(self) -> None:
        while not self.closing:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            worker = threading.Thread(
                target=self._serve_conn,
                args=(conn,),
                name="dtm-net-conn",
                daemon=True,
            )
            worker.start()

    def _serve_conn(self, conn) -> None:
        shard = -1
        try:
            ftype, header, _arrays, _blob = wire.recv_message(conn)
            shard = self._register(conn, ftype, header)
            while True:
                ftype, header, arrays, _blob = wire.recv_message(conn)
                self._handle_frame(shard, ftype, header, arrays)
        except (TransportError, OSError):
            pass
        finally:
            if shard >= 0:
                self._drop(conn, shard)
            else:
                conn.close()

    def _drop(self, conn, shard: int) -> None:
        with self.lock:
            entry = self._conns.get(shard)
            # a stale socket's late EOF after the shard already
            # re-registered must not retire the live incarnation
            if entry is not None and entry[0] is conn:
                del self._conns[shard]
                if not self.closing:
                    self.lost.add(shard)
                    if self.peer_addrs.pop(shard, None) is not None:
                        # retire the address so senders stop dialing a
                        # corpse; a respawn re-registers its new port
                        self.peer_gen += 1
                        self._broadcast_peers()
        conn.close()

    def _register(self, conn, ftype: int, header: dict) -> int:
        if ftype != wire.T_HELLO:
            raise ProtocolError("expected HELLO frame")
        if header.get("token") != self.token:
            wire.send_message(conn, wire.T_ERR, {"error": "bad token"})
            raise ProtocolError("worker presented a bad token")
        shard = int(header.get("shard", -1))
        if not 0 <= shard < self.n_shards:
            raise ProtocolError(f"unknown shard index {shard}")
        slot_lo, slot_hi = self.slot_bounds[shard]
        state_lo, state_hi = self.state_bounds[shard]
        wlock = threading.Lock()
        with self.lock:
            self._conns[shard] = (conn, wlock)
            self.lost.discard(shard)
            self.last_seen[shard] = time.monotonic()
            spec_header = {
                "n_slots": self.n_slots,
                "n_states": self.n_states,
                "idle_sleep": self.idle_sleep,
                "obs": self.obs_enabled,
            }
            with wlock:
                wire.send_message(
                    conn,
                    wire.T_SPEC,
                    spec_header,
                    blob=self.payloads[shard],
                )
                wire.send_message(
                    conn,
                    wire.T_X0,
                    {},
                    {"x0": self.x0[state_lo:state_hi]},
                )
                slots = np.arange(slot_lo, slot_hi, dtype=np.int64)
                values = np.array(self.waves[slot_lo:slot_hi])
                wire.send_message(
                    conn,
                    wire.T_WAVES,
                    {"dst": shard},
                    {"slots": slots, "values": values},
                )
                for word in (STOP, EPOCH, SHUTDOWN):
                    self._send_ctrl(conn, word, int(self.ctrl[word]))
            listen = header.get("listen")
            if listen:
                try:
                    host = conn.getpeername()[0]
                except OSError:  # pragma: no cover - conn died in hello
                    return shard
                self.peer_addrs[shard] = (host, int(listen))
            self.peer_gen += 1
            self._broadcast_peers()
        return shard

    def _broadcast_peers(self) -> None:
        with self.lock:
            header = {
                "gen": self.peer_gen,
                "peers": [
                    [s, h, p] for s, (h, p) in sorted(self.peer_addrs.items())
                ],
            }
            for conn, wlock in list(self._conns.values()):
                try:
                    with wlock:
                        wire.send_message(conn, wire.T_PEERS, header)
                except TransportError:
                    pass  # dropped peer is reported via lost_workers

    @staticmethod
    def _send_ctrl(conn, word: int, value: int) -> None:
        wire.send_message(
            conn, wire.T_CTRL, {"word": int(word), "value": int(value)}
        )

    # -- worker frames --------------------------------------------------
    def _handle_frame(self, shard: int, ftype: int, header, arrays) -> None:
        """Apply one worker frame to the mirrors."""
        n = self.n_shards
        self.last_seen[shard] = time.monotonic()
        if ftype == wire.T_WAVES:
            if self._c_rx_waves is not None:
                self._c_rx_waves.inc()
            dst = int(header["dst"])
            if not 0 <= dst < n:
                raise ProtocolError(f"wave frame to bad shard {dst}")
            slots = arrays["slots"]
            values = arrays["values"]
            dst_lo, dst_hi = self.slot_bounds[dst]
            if slots.shape != values.shape:
                raise ProtocolError(
                    f"wave frame from shard {shard} has mismatched "
                    "slot/value shapes"
                )
            # single-writer discipline: a frame may only touch the
            # destination shard's slot range (slots outside it
            # would overwrite cells some other shard owns)
            if slots.size:
                lo_ok = int(slots.min()) >= dst_lo
                hi_ok = int(slots.max()) < dst_hi
                if not (lo_ok and hi_ok):
                    raise ProtocolError(
                        f"wave frame from shard {shard} violates "
                        f"shard {dst}'s slot range "
                        f"[{dst_lo}, {dst_hi})"
                    )
            self.waves[slots] = values
            entry = self._conns.get(dst)
            if entry is not None and dst != shard:
                dst_conn, dst_lock = entry
                try:
                    with dst_lock:
                        wire.send_message(
                            dst_conn,
                            wire.T_WAVES,
                            header,
                            arrays,
                        )
                except TransportError:
                    pass  # dropped peer is reported via lost_workers
        elif ftype == wire.T_STATES:
            state_lo, state_hi = self.state_bounds[shard]
            slot_lo, slot_hi = self.slot_bounds[shard]
            states = arrays["states"]
            waves = arrays["waves"]
            if states.shape != (state_hi - state_lo,):
                raise ProtocolError(
                    f"state frame from shard {shard} has wrong shape"
                )
            if waves.shape != (slot_hi - slot_lo,):
                raise ProtocolError(
                    f"wave slice from shard {shard} has wrong shape"
                )
            self.states[state_lo:state_hi] = states
            self.snaps[slot_lo:slot_hi] = waves
            self.waves[slot_lo:slot_hi] = waves
            self.ctrl[sweep_cell(shard)] = int(header["sweeps"])
            if self._c_rx_states is not None:
                self._c_rx_states.inc()
            obs = header.get("obs")
            if obs is not None:
                self.worker_obs[shard] = obs
        elif ftype == wire.T_HEARTBEAT:
            self.ctrl[sweep_cell(shard)] = int(header.get("sweeps", 0))
            obs = header.get("obs")
            if obs is not None:
                self.worker_obs[shard] = obs
        elif ftype == wire.T_ACK:
            self.ctrl[ack_cell(n, shard)] = int(header["epoch"])
        elif ftype == wire.T_ERR:
            self.err_text = str(header.get("error", ""))
            self.ctrl[ERR] = shard + 1
        else:
            raise ProtocolError(f"unexpected worker frame {ftype}")

    # -- coordinator operations ----------------------------------------
    def install_obs(self, registry) -> None:
        """Create the hub's frame counters on *registry*."""
        self._c_rx_waves = registry.counter(
            "repro_router_frames_total",
            "frames the coordinator router received, by type",
            type="waves")
        self._c_rx_states = registry.counter(
            "repro_router_frames_total",
            "frames the coordinator router received, by type",
            type="states")

    def connected_shards(self) -> list:
        with self.lock:
            return sorted(self._conns)

    def refresh_liveness(self) -> None:
        """Restart every connected shard's heartbeat clock.

        Called at each epoch start so a coordinator that sat idle
        between solves never reads minutes-old timestamps as an
        instant staleness verdict.
        """
        with self.lock:
            now = time.monotonic()
            for shard in self._conns:
                self.last_seen[shard] = now

    def stale_workers(self) -> list:
        now = time.monotonic()
        with self.lock:
            return sorted(
                shard
                for shard in self._conns
                if now - self.last_seen.get(shard, now)
                > self.liveness_timeout
            )

    def broadcast_ctrl(self, word: int, value: int) -> None:
        with self.lock:
            self.ctrl[word] = int(value)
            if word == SHUTDOWN and value:
                self.closing = True
            for conn, wlock in list(self._conns.values()):
                try:
                    with wlock:
                        self._send_ctrl(conn, word, value)
                except TransportError:
                    pass

    def write_x0(self, x0: np.ndarray) -> None:
        with self.lock:
            self.x0[:] = x0
            for shard, (conn, wlock) in list(self._conns.items()):
                lo, hi = self.state_bounds[shard]
                try:
                    with wlock:
                        wire.send_message(
                            conn,
                            wire.T_X0,
                            {},
                            {"x0": self.x0[lo:hi]},
                        )
                except TransportError:
                    pass

    def write_waves(self, waves: np.ndarray) -> None:
        with self.lock:
            self.waves[:] = waves
            for shard, (conn, wlock) in list(self._conns.items()):
                lo, hi = self.slot_bounds[shard]
                slots = np.arange(lo, hi, dtype=np.int64)
                values = np.array(self.waves[lo:hi])
                try:
                    with wlock:
                        wire.send_message(
                            conn,
                            wire.T_WAVES,
                            {"dst": shard},
                            {"slots": slots, "values": values},
                        )
                except TransportError:
                    pass

    def close(self) -> None:
        """Stop accepting, then drop every worker connection.

        Closing a listening socket does not wake a thread blocked in
        ``accept()`` on it (Linux): the accept thread and the kernel
        socket — still queueing dialers of a "closed" hub — would
        outlive every closed mesh runner.  ``shutdown`` does wake it.
        """
        self.closing = True
        try:
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # closed before, or a platform whose close() wakes
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - best-effort
            pass
        accept = self._accept
        if accept is not None and accept is not threading.current_thread():
            accept.join(_ACCEPT_JOIN_S)
        with self.lock:
            conns = list(self._conns.values())
            self._conns.clear()
        for conn, _wlock in conns:
            try:
                conn.close()
            except OSError:  # pragma: no cover - best-effort
                pass


class HubCoordinatorPort(CoordinatorPort):
    """Coordinator port over the :class:`_Hub` mirrors."""

    def __init__(self, transport: "MeshTransport", hub: _Hub) -> None:
        self._transport = transport
        self._hub = hub
        self._n_shards = hub.n_shards

    def begin_epoch(self, epoch: int) -> None:
        self._hub.refresh_liveness()
        self._hub.broadcast_ctrl(EPOCH, int(epoch))

    def signal_stop(self, epoch: int) -> None:
        self._hub.broadcast_ctrl(STOP, int(epoch))

    def shutdown(self) -> None:
        self._hub.broadcast_ctrl(SHUTDOWN, 1)

    def write_x0(self, x0: np.ndarray) -> None:
        self._hub.write_x0(x0)

    def write_waves(self, waves: np.ndarray) -> None:
        self._hub.write_waves(waves)

    def read_waves(self) -> np.ndarray:
        return np.array(self._hub.waves)

    def read_states(self) -> np.ndarray:
        return np.array(self._hub.states)

    def read_snapshots(self) -> np.ndarray:
        return np.array(self._hub.snaps)

    def sweep_counts(self) -> np.ndarray:
        cells = [sweep_cell(i) for i in range(self._n_shards)]
        return np.array(self._hub.ctrl[cells], dtype=np.int64)

    def acks(self) -> np.ndarray:
        n = self._n_shards
        cells = [ack_cell(n, i) for i in range(n)]
        return np.array(self._hub.ctrl[cells], dtype=np.int64)

    def failed_shard(self) -> int:
        return int(self._hub.ctrl[ERR])

    def error_detail(self) -> str:
        return self._hub.err_text

    def lost_workers(self) -> list:
        return sorted(self._hub.lost)

    def connected_shards(self) -> list:
        return self._hub.connected_shards()

    def stale_workers(self) -> list:
        return self._hub.stale_workers()

    def install_obs(self, registry) -> None:
        self._hub.install_obs(registry)

    def worker_metrics(self) -> dict:
        return dict(self._hub.worker_obs)

    def close(self) -> None:
        self._transport.close()


class _PeerConn:
    """One established outbound peer socket with its send lock."""

    __slots__ = ("sock", "wlock", "addr")

    def __init__(self, sock, addr) -> None:
        self.sock = sock
        self.wlock = threading.Lock()
        self.addr = addr


class MeshWorkerPort(WorkerPort):
    """Worker port: private wave buffer, hub socket, neighbor sockets.

    The hub connection carries control, x0, state publishes, acks and
    heartbeats; wave frames to neighbors prefer a direct socket and
    take the hub path while none is up.  All inbound applying (hub
    reader, per-peer readers) only ever writes local arrays — reader
    threads never send — which rules out distributed write-write
    deadlock: a worker's receive buffers always drain, so the hub's
    forwarding writes and the peers' sends always complete.
    """

    def __init__(
        self,
        host: str,
        port: int,
        token: str,
        shard: int,
        *,
        listen_port: int = 0,
        listen_host: str = "0.0.0.0",
        connect_timeout: float = 30.0,
    ) -> None:
        self.shard = int(shard)
        self._token = str(token)
        self._closing = False
        self._peers_lock = threading.Lock()
        self._peer_dir: dict = {}  # shard -> (host, port)
        self._peer_gen = -1
        self._peer_out: dict = {}  # shard -> _PeerConn
        self._peer_in: list = []  # inbound sockets (for close/faults)
        self._dial_wakeup = threading.Event()
        self._hb_last = 0.0
        self._faults = None
        self._sweeps = 0
        # counters stay None until install_obs; the reader, dialer and
        # accept threads start before any registry can be attached
        self._obs = None
        self._c_frames = None
        self._c_dropped = None
        self._c_delayed = None
        self._c_fallback = None
        self._c_dials = None
        self._c_dial_failures = None
        try:
            sock = socket.create_connection(
                (host, int(port)), timeout=float(connect_timeout)
            )
        except OSError as exc:
            raise TransportError(
                f"cannot reach coordinator at {host}:{port}: {exc}"
            ) from exc
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._sock_wlock = threading.Lock()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener = listener
        try:
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((listen_host, int(listen_port)))
            listener.listen(8)
            self.listen_port = int(listener.getsockname()[1])
            hello = {
                "token": token,
                "shard": self.shard,
                "listen": self.listen_port,
            }
            wire.send_message(sock, wire.T_HELLO, hello)
            ftype, header, _arrays, blob = wire.recv_message(sock)
            if ftype == wire.T_ERR:
                raise TransportError(
                    f"coordinator rejected worker: {header.get('error')}"
                )
            if ftype != wire.T_SPEC:
                raise ProtocolError("expected SPEC frame after HELLO")
            try:
                self.spec = ShardSpec.from_payload(blob)
                self.idle_sleep = float(header["idle_sleep"])
            except (ValidationError, KeyError) as exc:
                raise ProtocolError(
                    "SPEC frame does not fit this worker's build "
                    "(coordinator and workers must run the same "
                    f"repro version): {exc}") from exc
        except (OSError, TransportError):
            self.close()  # a rejected handshake must not leak sockets
            raise
        self.obs_enabled = bool(header.get("obs", False))
        spec = self.spec
        self._slot_lo = int(spec.slot_lo)
        self._slot_hi = int(spec.slot_hi)
        n_owned = self._slot_hi - self._slot_lo
        n_local = int(spec.state_hi) - int(spec.state_lo)
        self._in_waves = np.zeros(n_owned)
        self._x0 = np.zeros(n_local)
        self._mirror = np.zeros(PER_SHARD, dtype=np.int64)
        self._loop_pos = spec.loopback.emit_pos
        self._loop_local = spec.loopback.dest_slots - self._slot_lo
        self._outboxes = [
            (int(box.dst_shard), box.emit_pos, box.dest_slots)
            for box in spec.outboxes
        ]
        self._out_dsts = [dst for dst, _, _ in self._outboxes]
        for target, name in (
            (self._reader_loop, "dtm-net-recv"),
            (self._accept_loop, "dtm-mesh-accept"),
            (self._dial_loop, "dtm-mesh-dial"),
        ):
            threading.Thread(target=target, name=name, daemon=True).start()

    def install_obs(self, registry) -> None:
        """Data-path counters + snapshot piggyback.

        Once installed, every state publish and heartbeat carries a
        jsonable snapshot of *registry* in its header, which the hub
        stores per shard — the cross-process aggregation channel.
        ``frames`` counts outbound wave frames before fault injection,
        so scripted drop quotas are verifiable against it;
        ``fallback`` counts frames routed through the hub while no
        direct peer socket was up; ``dials``/``dial_failures`` expose
        the backoff dialer's churn.
        """
        self._obs = registry
        shard = str(self.shard)

        def counter(name, help_text):
            return registry.counter(name, help_text, shard=shard)

        self._c_frames = counter(
            "repro_mesh_frames_total",
            "outbound neighbor wave frames (before fault injection)")
        self._c_dropped = counter(
            "repro_mesh_frames_dropped_total",
            "wave frames dropped by scripted fault injection")
        self._c_delayed = counter(
            "repro_mesh_frames_delayed_total",
            "wave frames delayed by scripted fault injection")
        self._c_fallback = counter(
            "repro_mesh_fallback_total",
            "wave frames sent via the hub for lack of a peer socket")
        self._c_dials = counter(
            "repro_mesh_dials_total", "peer dial attempts")
        self._c_dial_failures = counter(
            "repro_mesh_dial_failures_total",
            "peer dial attempts that failed (backoff applied)")

    # -- hub frames -----------------------------------------------------
    def _reader_loop(self) -> None:
        try:
            while True:
                ftype, header, arrays, _blob = wire.recv_message(self._sock)
                self._apply_frame(ftype, header, arrays)
        except ProtocolError:
            self._mirror[SHUTDOWN] = 1
            raise
        except (TransportError, OSError):
            # a vanished coordinator must release the worker loop
            self._mirror[SHUTDOWN] = 1

    def _apply_wave_frame(self, arrays, source: str) -> None:
        """Latest-wins apply-on-receive, from the hub or a peer."""
        lo, hi = self._slot_lo, self._slot_hi
        slots = arrays["slots"]
        values = arrays["values"]
        if slots.shape != values.shape:
            raise ProtocolError(f"{source} wave frame has mismatched shapes")
        if np.any((slots < lo) | (slots >= hi)):
            raise ProtocolError(
                f"{source} wave frame targets slots outside this "
                f"shard's range [{lo}, {hi})"
            )
        self._in_waves[slots - lo] = values

    def _apply_frame(self, ftype: int, header, arrays) -> None:
        """Apply one coordinator frame to local state."""
        if ftype == wire.T_WAVES:
            self._apply_wave_frame(arrays, "hub")
        elif ftype == wire.T_X0:
            x0 = arrays["x0"]
            if x0.shape != self._x0.shape:
                raise ProtocolError("x0 frame has wrong shape")
            self._x0[:] = x0
        elif ftype == wire.T_CTRL:
            word = int(header["word"])
            self._mirror[word] = int(header["value"])
        elif ftype == wire.T_PEERS:
            with self._peers_lock:
                gen = int(header.get("gen", 0))
                if gen <= self._peer_gen:
                    return  # stale directory
                self._peer_gen = gen
                self._peer_dir = {
                    int(s): (str(h), int(p))
                    for s, h, p in header.get("peers", [])
                    if int(s) != self.shard
                }
            self._dial_wakeup.set()
        else:
            raise ProtocolError(f"unexpected coordinator frame {ftype}")

    # -- inbound peer side ----------------------------------------------
    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            reader = threading.Thread(
                target=self._peer_reader,
                args=(conn,),
                name="dtm-mesh-peer",
                daemon=True,
            )
            reader.start()

    def _peer_reader(self, conn) -> None:
        try:
            ftype, header, _arrays, _blob = wire.recv_message(conn)
            if ftype != wire.T_PEER_HELLO:
                raise ProtocolError("expected PEER_HELLO frame")
            if header.get("token") != self._token:
                raise ProtocolError("peer presented a bad token")
            self._peer_in.append(conn)
            while True:
                ftype, header, arrays, _blob = wire.recv_message(conn)
                if ftype != wire.T_WAVES:
                    raise ProtocolError(
                        f"unexpected peer frame {ftype}"
                    )
                self._apply_wave_frame(arrays, "peer")
        except (TransportError, ProtocolError, OSError):
            pass
        finally:
            try:
                self._peer_in.remove(conn)
            except ValueError:
                pass
            try:
                conn.close()
            except OSError:  # pragma: no cover - best-effort
                pass

    # -- outbound peer side ---------------------------------------------
    def _dial_loop(self) -> None:
        backoff: dict = {}  # shard -> (next_attempt, delay)
        while not self._closing:
            self._dial_wakeup.wait(timeout=0.1)
            self._dial_wakeup.clear()
            if self._closing:
                return
            with self._peers_lock:
                directory = dict(self._peer_dir)
            now = time.monotonic()
            for dst in self._out_dsts:
                addr = directory.get(dst)
                conn = self._peer_out.get(dst)
                if conn is not None and conn.addr != addr:
                    # peer moved (respawn) or left the directory
                    self._retire_peer(dst)
                    conn = None
                if addr is None or conn is not None:
                    continue
                next_at, delay = backoff.get(dst, (0.0, 0.05))
                if now < next_at:
                    continue
                if self._c_dials is not None:
                    self._c_dials.inc()
                try:
                    sock = socket.create_connection(addr, timeout=5.0)
                    sock.settimeout(None)
                    sock.setsockopt(
                        socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                    )
                    wire.send_message(
                        sock,
                        wire.T_PEER_HELLO,
                        {"token": self._token, "shard": self.shard},
                    )
                except (OSError, TransportError):
                    if self._c_dial_failures is not None:
                        self._c_dial_failures.inc()
                    backoff[dst] = (
                        now + delay,
                        min(delay * 2.0, 2.0),
                    )
                    continue
                backoff.pop(dst, None)
                self._peer_out[dst] = _PeerConn(sock, addr)

    def _retire_peer(self, dst: int) -> None:
        conn = self._peer_out.pop(dst, None)
        if conn is not None:
            try:
                conn.sock.close()
            except OSError:  # pragma: no cover - best-effort
                pass

    def _send_hub(self, ftype: int, header, arrays=None) -> None:
        """Serialized send on the coordinator socket.

        The worker loop, heartbeats and (under fault injection) a
        delay-flusher thread may all emit hub frames; a lock keeps the
        frames whole on the wire.  A write that fails means the
        coordinator is gone (a closed runner hangs up right after its
        SHUTDOWN broadcast, and the loop may be mid-ack): it releases
        the worker loop exactly as the reader's EOF does, whichever of
        the two threads notices first.
        """
        try:
            with self._sock_wlock:
                wire.send_message(self._sock, ftype, header, arrays)
        except TransportError:
            self._mirror[SHUTDOWN] = 1

    def _send_wave_frame(self, dst, slots, values) -> None:
        """One wave frame: direct peer socket, else through the hub."""
        conn = self._peer_out.get(dst)
        if conn is not None:
            try:
                with conn.wlock:
                    wire.send_message(
                        conn.sock,
                        wire.T_WAVES,
                        {"dst": int(dst)},
                        {"slots": slots, "values": values},
                    )
                return
            except TransportError:
                self._retire_peer(dst)
                self._dial_wakeup.set()
        if self._c_fallback is not None:
            self._c_fallback.inc()
        self._send_hub(
            wire.T_WAVES,
            {"dst": int(dst)},
            {"slots": slots, "values": values},
        )

    # -- the port interface ----------------------------------------------
    def shutdown_requested(self) -> bool:
        return bool(self._mirror[SHUTDOWN])

    def current_epoch(self) -> int:
        self._maybe_heartbeat()
        return int(self._mirror[EPOCH])

    def stop_requested(self, epoch: int) -> bool:
        return int(self._mirror[STOP]) >= epoch

    def read_x0(self) -> np.ndarray:
        return np.array(self._x0)

    def wave_snapshot(self) -> np.ndarray:
        return np.array(self._in_waves)

    def post_waves(self, out: np.ndarray) -> None:
        self._in_waves[self._loop_local] = out[self._loop_pos]
        faults = self._faults
        for dst, emit_pos, dest_slots in self._outboxes:
            if self._c_frames is not None:
                self._c_frames.inc()
            if faults is not None:
                action, delay_s = faults.wave_action(dst)
                if action == "drop":
                    if self._c_dropped is not None:
                        self._c_dropped.inc()
                    continue
                if action == "delay":
                    if self._c_delayed is not None:
                        self._c_delayed.inc()
                    self._delay_frame(
                        dst, dest_slots, out[emit_pos].copy(), delay_s
                    )
                    continue
            self._send_wave_frame(dst, dest_slots, out[emit_pos])
        if self._outboxes:
            # yield the core so the peers (or the hub) and sibling
            # shards can move the frames we just emitted; on busy
            # hosts this keeps boundary data fresh instead of letting
            # one hot shard relax against stale waves for a whole
            # scheduler quantum
            time.sleep(0)

    def record_sweeps(self, total: int) -> None:
        self._sweeps = int(total)
        self._maybe_heartbeat()

    def publish_states(
        self, states: np.ndarray, waves: np.ndarray, sweeps: int
    ) -> None:
        self._sweeps = int(sweeps)
        header = {"shard": self.shard, "sweeps": self._sweeps}
        if self._obs is not None:
            header["obs"] = self._obs.snapshot().to_jsonable()
        self._send_hub(
            wire.T_STATES,
            header,
            {"states": states, "waves": waves},
        )

    def ack(self, epoch: int) -> None:
        self._send_hub(
            wire.T_ACK,
            {"shard": self.shard, "epoch": int(epoch)},
        )

    def mark_error(self, detail: str = "") -> None:
        self._send_hub(
            wire.T_ERR,
            {"shard": self.shard, "error": detail},
        )

    # -- fault injection hooks (driven by repro.net.faults) --------------
    def install_frame_faults(self, injector) -> None:
        """Route outgoing wave frames through a fault injector."""
        self._faults = injector

    def _delay_frame(self, dst, slots, values, delay_s: float) -> None:
        epoch = int(self._mirror[EPOCH])

        def flush() -> None:
            # a frame delayed past its epoch is dropped: replaying it
            # into a later epoch would resurrect waves the coordinator
            # already reset
            if self._closing or int(self._mirror[EPOCH]) != epoch:
                return
            try:
                self._send_wave_frame(dst, slots, values)
            except (TransportError, OSError):
                pass

        timer = threading.Timer(float(delay_s), flush)
        timer.daemon = True
        timer.start()

    def close_peer_conns(self) -> None:
        """Abruptly close every peer socket (socket-close injection).

        The mesh must recover on its own: senders take the hub path
        and the dialer re-establishes direct sockets.
        """
        for dst in list(self._peer_out):
            self._retire_peer(dst)
        for conn in list(self._peer_in):
            try:
                conn.close()
            except OSError:  # pragma: no cover - best-effort
                pass
        self._dial_wakeup.set()

    # -- liveness --------------------------------------------------------
    def _maybe_heartbeat(self) -> None:
        now = time.monotonic()
        if now - self._hb_last < HEARTBEAT_EVERY:
            return
        self._hb_last = now
        header = {"shard": self.shard, "sweeps": self._sweeps}
        if self._obs is not None:
            header["obs"] = self._obs.snapshot().to_jsonable()
        self._send_hub(wire.T_HEARTBEAT, header)

    def close(self) -> None:
        self._closing = True
        self._dial_wakeup.set()
        self.close_peer_conns()
        for sock in (self._listener, self._sock):
            try:
                sock.close()
            except OSError:  # pragma: no cover - best-effort
                pass


class MeshTransport(Transport):
    """Socket fabric: shards may live on any machine that can connect.

    Parameters
    ----------
    host, port:
        Listen address of the coordinator-side hub.  The defaults
        (loopback, ephemeral port) serve the single-machine case; bind
        a LAN address to span machines.  After :meth:`bind`,
        ``transport.port`` holds the actual port.
    token:
        Shared secret workers must present in their HELLO frame (and
        to each other when dialling); a random one is generated when
        omitted.
    liveness_timeout:
        Seconds of heartbeat silence before a connected worker is
        reported stale.

    Sets ``supports_recovery`` so
    :class:`~repro.runtime.multiproc.MultiprocDtmRunner` respawns and
    re-snapshots lost shard workers instead of aborting the solve.
    """

    name = "mesh"
    supports_recovery = True

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        token: Optional[str] = None,
        *,
        liveness_timeout: float = LIVENESS_TIMEOUT,
    ) -> None:
        self.host = str(host)
        self.port = int(port)
        self.token = token if token is not None else secrets.token_hex(16)
        self.liveness_timeout = float(liveness_timeout)
        self._hub: Optional[_Hub] = None

    def bind(
        self,
        specs,
        *,
        n_slots: int,
        n_states: int,
        idle_sleep: float,
        obs_enabled: bool = False,
        wakes=(),
    ) -> HubCoordinatorPort:
        if self._hub is not None:
            raise ConfigurationError("MeshTransport is already bound")
        hub = _Hub(
            specs,
            host=self.host,
            port=self.port,
            token=self.token,
            n_slots=n_slots,
            n_states=n_states,
            idle_sleep=idle_sleep,
            liveness_timeout=self.liveness_timeout,
            obs_enabled=obs_enabled,
        )
        hub.start()
        self._hub = hub
        self.port = int(hub.address[1])
        return HubCoordinatorPort(self, hub)

    def worker_descriptor(self, index: int) -> tuple:
        if self._hub is None:
            raise ConfigurationError("bind the transport before workers")
        return ("mesh", self.host, self.port, self.token, int(index), 0)

    def close(self) -> None:
        if self._hub is not None:
            self._hub.close()


__all__ = [
    "LIVENESS_TIMEOUT",
    "HEARTBEAT_EVERY",
    "MeshTransport",
    "HubCoordinatorPort",
    "MeshWorkerPort",
]
