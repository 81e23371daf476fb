"""The shard worker's entry: the one loop every shard process runs.

A module of its own because of what importing it costs.  A pooled
worker (:func:`repro.runtime.pool.worker_pool`) unpickles its target by
importing the target's module, and a remote worker (``python -m
repro.net.worker``) imports it by name: what this file imports is what
every shard pays before its first sweep — once per process, however
many runners a pooled worker serves.  That is numpy, the shard kernel
and the transport ports — no session, simulator, factorization or
graph code, none of which a sweep touches (``tests/test_imports.py``
pins the set; PERFORMANCE.md "Cold start").  The coordinator lives in
:mod:`repro.runtime.multiproc`.
"""

from __future__ import annotations

import os
import time
import traceback
from typing import Optional

import numpy as np

from ..net.transport import open_worker_port


def _run_worker(spec, port, idle_sleep: float) -> None:
    """The transport-agnostic shard loop.

    Protocol: wait on the port for an epoch bump; on one, reload the
    zero-wave states, then free-run sweeps **on the ports alone** until
    the coordinator ends *that* epoch (the STOP word names the epoch it
    ends, so neither a leftover STOP nor one that overtook the bump can
    be misread); publish the port and halo states and the wave snapshot
    they came from — the only time an epoch touches a row below the
    ports — and ack the epoch; repeat until shutdown.  The shard holds
    no other rows: the coordinator builds the interiors of an answer.
    """
    kern = spec.kernel
    total_sweeps = 0
    last_epoch = 0
    while True:
        if port.shutdown_requested():
            return
        epoch = port.current_epoch()
        if epoch == last_epoch:
            port.idle_wait(idle_sleep)
            continue
        last_epoch = epoch
        kern.load_x0(port.read_x0())
        last_a: Optional[np.ndarray] = None
        while not port.stop_requested(epoch):
            if port.shutdown_requested():
                # a coordinator that vanishes (or closes) mid-epoch
                # never raises STOP; the worker must still exit
                # instead of napping forever on stale waves
                return
            a = port.wave_snapshot()  # one latest-wins snapshot
            if last_a is not None and np.array_equal(a, last_a):
                # arrival-triggered solves (Table 1): no new boundary
                # information means a resolve would emit the identical
                # waves — nap instead of burning the timeslice, so a
                # busy sibling shard gets the core
                time.sleep(idle_sleep)
                continue
            out = kern.sweep(a)
            last_a = a
            port.post_waves(out)
            total_sweeps += 1
            port.record_sweeps(total_sweeps)
        # quiesced: publish the one state this epoch is judged on, then
        # ack (also when STOP overtook the bump: zero sweeps, one publish)
        a = port.wave_snapshot()
        port.publish_states(kern.look_states(a), a, total_sweeps)
        port.ack(epoch)


def _worker_main(descriptor, faults=None, wake=None) -> None:
    """Entry point of one shard worker (module-level for spawn).

    Opens a worker port from the transport descriptor — an shm port
    with *wake*, the semaphore a pooled worker was born with — and
    runs the shard loop.  *faults* is an optional
    :class:`~repro.net.faults.ShardFaults` script armed on the port —
    the chaos-testing hook.  Any exception marks the error cell (or
    sends an error frame) before exiting, so the coordinator fails
    fast instead of hanging on acks.
    """
    spec, port, idle_sleep = open_worker_port(descriptor, wake)
    if port.obs_enabled or os.environ.get("REPRO_OBS"):
        # (the registry is imported by the workers that count)
        from ..obs.registry import MetricRegistry, obs_env_enabled

        if port.obs_enabled or obs_env_enabled():
            # each worker keeps a private registry; socket ports
            # piggyback its snapshots on state/heartbeat frames for the
            # coordinator to merge (the shm port has no byte channel
            # and ignores it)
            port.install_obs(MetricRegistry())
    if faults is not None:
        from ..net.faults import apply_faults

        port = apply_faults(port, faults)
    try:
        _run_worker(spec, port, idle_sleep)
    except Exception:  # pragma: no cover - exercised via error tests
        try:
            port.mark_error(traceback.format_exc(limit=4))
        except Exception:
            pass
        traceback.print_exc()
        raise
    finally:
        # an shm worker's stacks are views of a segment its port maps:
        # let go of them first, a mapping cannot close under a view
        del spec
        port.close()


def _pooled_main(conn, wake) -> None:
    """Entry point of a pooled shard worker (module-level for spawn).

    Booted once, the worker blocks on *conn* for ``(descriptor,
    faults)`` and runs :func:`_worker_main` on them with *wake*, the
    semaphore it was born with, then reports ``done`` once SHUTDOWN has
    closed its port and unmapped its segments, and waits for the next
    shard.  ``None`` or EOF ends it, and so does an exception, which the
    coordinator sees as EOF instead of ``done``.
    """
    while True:
        try:
            job = conn.recv()
        except EOFError:
            return
        if job is None:
            return
        descriptor, faults = job
        _worker_main(descriptor, faults, wake)
        # a post the loop left unconsumed would wake the next shard's
        # idle loop once for nothing
        while wake.acquire(False):
            pass
        conn.send("done")
