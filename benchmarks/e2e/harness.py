"""Benchmark-side building blocks: inputs, checks, statistics, context.

Nothing in this module imports ``repro``: the inputs are generated
here, the answers are checked here with this module's own CSR product
and its own conjugate-gradient reference, and the statistics are plain
``statistics``/``numpy`` — so a change to the program under test cannot
change how the benchmark generates work or judges a result.
"""

from __future__ import annotations

import faulthandler
import json
import math
import multiprocessing
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import NamedTuple, Optional, Sequence

import numpy as np

#: a solve passes when its recomputed metric is at most this (the
#: stopping rule's 1e-6 plus rounding room for a second product)
CHECK_LIMIT = 1.01e-6

#: right-hand sides per pool, cycled in order by the timed loop
POOL_SIZE = 64

#: worker processes per runner: the sizing host has two cores
SHARDS = 2

#: the percentile rule: report the highest percentile that still has
#: this many samples beyond it
MIN_SAMPLES_BEYOND = 10

E2E_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(E2E_DIR))
OUT_DIR = os.path.join(E2E_DIR, "out")


# ----------------------------------------------------------------------
# inputs
# ----------------------------------------------------------------------
class Csr(NamedTuple):
    """A square CSR matrix as three plain arrays."""

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray

    @property
    def n(self) -> int:
        return int(self.indptr.size - 1)


def poisson_csr(nx: int, ground: float = 0.05) -> Csr:
    """5-point Laplacian on an nx×nx grid plus a uniform ground leak.

    Row-major numbering, column indices sorted within each row — the
    same system ``repro.workloads.poisson.grid2d_poisson(nx)`` builds,
    constructed independently of it.
    """
    ids = np.arange(nx * nx, dtype=np.int64).reshape(nx, nx)
    pairs = [(ids[:, :-1].ravel(), ids[:, 1:].ravel()),
             (ids[:-1, :].ravel(), ids[1:, :].ravel())]
    rows = np.concatenate([p[0] for p in pairs] + [p[1] for p in pairs])
    cols = np.concatenate([p[1] for p in pairs] + [p[0] for p in pairs])
    degree = np.bincount(rows, minlength=nx * nx).astype(np.float64)
    rows = np.concatenate([rows, ids.ravel()])
    cols = np.concatenate([cols, ids.ravel()])
    vals = np.concatenate([-np.ones(rows.size - nx * nx),
                           degree + float(ground)])
    order = np.lexsort((cols, rows))
    indptr = np.concatenate(
        [[0], np.cumsum(np.bincount(rows, minlength=nx * nx))])
    return Csr(vals[order], cols[order].astype(np.int64),
               indptr.astype(np.int64))


def rhs_pool(seed: int, n: int, size: int = POOL_SIZE) -> np.ndarray:
    """``size`` standard-normal right-hand sides of length *n*.

    The whole pool is one draw from one generator, so a seed fixes
    every byte of it.
    """
    return np.random.default_rng(int(seed)).standard_normal((size, n))


# ----------------------------------------------------------------------
# correctness, recomputed by the benchmark
# ----------------------------------------------------------------------
def csr_matvec(a: Csr, x: np.ndarray) -> np.ndarray:
    """``A @ x`` by one gather and a segmented sum (rows non-empty)."""
    return np.add.reduceat(a.data * x[a.indices], a.indptr[:-1])


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """Inner product without BLAS.

    ``@`` and ``np.linalg.norm`` wake the BLAS thread pool, whose idle
    threads spin for tens of milliseconds afterwards; on a two-core host
    a check between two timed solves then steals a core from the next
    one (measured: +55 ms on a 200 ms solve).
    """
    return float(np.sum(u * v))


def relative_residual(a: Csr, x, b) -> float:
    """``‖b − A x‖₂ / ‖b‖₂`` with this module's own product."""
    x = np.asarray(x, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if x.shape != b.shape or not np.all(np.isfinite(x)):
        return float("inf")
    r = b - csr_matvec(a, x)
    return math.sqrt(_dot(r, r) / _dot(b, b))


def rms_error(x, reference) -> float:
    """Root-mean-square distance to *reference* (inf on a bad shape)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != reference.shape or not np.all(np.isfinite(x)):
        return float("inf")
    return float(np.sqrt(np.mean((x - reference) ** 2)))


def cg_reference(a: Csr, b: np.ndarray, tol: float = 1e-13) -> np.ndarray:
    """Conjugate gradients to *tol*: the benchmark's own reference."""
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = _dot(r, r)
    limit = tol * tol * rs
    for _ in range(10 * a.n):
        if rs <= limit:
            break
        ap = csr_matvec(a, p)
        alpha = rs / _dot(p, ap)
        x += alpha * p
        r -= alpha * ap
        rs_new = _dot(r, r)
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x


def residual_ok(a: Csr, x, b, converged: bool = True) -> bool:
    """The pass rule of the served workloads."""
    return bool(converged) and relative_residual(a, x, b) <= CHECK_LIMIT


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def highest_percentile(n_samples: int,
                       beyond: int = MIN_SAMPLES_BEYOND) -> int:
    """Highest whole percentile with at least *beyond* samples above it.

    Never below the median: with fewer than ``2 * beyond`` samples the
    median is all that can be reported.
    """
    if n_samples < 2 * beyond:
        return 50
    return max(50, min(99, int(100 * (n_samples - beyond) / n_samples)))


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def quartiles(values: Sequence[float]) -> tuple:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them
    (a single value is its own quartiles)."""
    vals = [float(v) for v in values]
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def summarize(values: Sequence[float]) -> dict:
    """Sample count, median and quartiles of one metric's samples."""
    q1, q2, q3 = quartiles(values)
    return {"n": len(values), "median": q2, "q1": q1, "q3": q3}


# ----------------------------------------------------------------------
# the A/A comparator
# ----------------------------------------------------------------------
def worsening(first: float, second: float, better: str) -> float:
    """Share of *first* by which *second* is worse (negative: better)."""
    delta = second - first if better == "lower" else first - second
    if first == 0:
        return 0.0 if delta <= 0 else float("inf")
    return delta / abs(first)


def compare_sets(medians_a: dict, medians_b: dict, specs: dict) -> list:
    """Compare two sets' medians against each metric's bound.

    *medians_x* map ``(workload, metric)`` to a set median; *specs*
    maps a metric name to ``{"better", "bound"}``.  A bound of ``0``
    is absolute (``failed_frac``): any increase fails.  The A/A
    question is symmetric — identical code has no "before" — so the
    pair fails when either set is worse than the other by more than
    the bound.  Returns one row per pair, each carrying both bases.
    """
    rows = []
    for key in sorted(medians_a):
        if key not in medians_b:
            continue
        workload, metric = key
        spec = specs[metric]
        a, b = medians_a[key], medians_b[key]
        if spec["bound"] == 0:
            diff = abs(b - a)
            ok = diff == 0
        else:
            diff = max(worsening(a, b, spec["better"]),
                       worsening(b, a, spec["better"]))
            ok = diff <= spec["bound"]
        rows.append({"workload": workload, "metric": metric,
                     "a": a, "b": b, "diff": diff,
                     "bound": spec["bound"], "ok": ok})
    return rows


# ----------------------------------------------------------------------
# run context
# ----------------------------------------------------------------------
def _git_commit() -> str:
    if not os.path.isdir(os.path.join(REPO_ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "-C", REPO_ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_context(seed: int) -> dict:
    """What a reader needs to place a number: code, host, load."""
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    load1 = os.getloadavg()[0]
    if load1 > 0.5:
        print(f"warning: 1-minute load average is {load1:.2f} (> 0.5); "
              "timings on this 2-core sizing are not quiet-host numbers",
              file=sys.stderr)
    return {
        "git_commit": _git_commit(),
        "seed": int(seed),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "start_method": "spawn",
        "load1_at_start": load1,
    }


# ----------------------------------------------------------------------
# process and shared-memory hygiene
# ----------------------------------------------------------------------
def shm_segments() -> set:
    """Names under ``/dev/shm`` (empty where the host has none)."""
    try:
        return set(os.listdir("/dev/shm"))
    except OSError:
        return set()


def _proc_stat(pid) -> list:
    """Fields of ``/proc/<pid>/stat`` from the state on; [] if gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return []


def pid_alive(pid: int) -> bool:
    """True while *pid* exists and is not a zombie."""
    return _proc_stat(pid)[:1] not in ([], ["Z"])


def group_pids(pgid: int) -> list:
    """Live processes of process group *pgid*, read from ``/proc``."""
    pids = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _proc_stat(entry)
            if stat and stat[0] != "Z" and int(stat[2]) == pgid:
                pids.append(int(entry))
    return sorted(pids)


def shm_mapped(pids: Sequence[int]) -> set:
    """``/dev/shm`` segments that any of *pids* has mapped: the only
    segments a run calls its own on a host it shares."""
    names = set()
    for pid in pids:
        try:
            with open(f"/proc/{pid}/maps") as fh:
                for line in fh:
                    path = line.rstrip("\n").partition("/dev/shm/")[2]
                    if path:
                        names.add(path.removesuffix(" (deleted)"))
        except OSError:
            pass
    return names


def vm_hwm_mib(pid) -> float:
    """Peak resident set of *pid* (``"self"`` allowed) in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"/proc/{pid}/status has no VmHWM line")


class HostError(RuntimeError):
    """The server-host process misbehaved (died, or reported an error)."""


class HostProcess:
    """Handle on one ``host.py`` child: launch, command, observe, stop.

    The child leads its own process group, so the host and every worker
    it spawns can be listed, measured and killed together from outside.
    """

    live: list = []  # what the watchdog must kill

    def __init__(self, transport: str, plan_dir: Optional[str] = None):
        argv = [sys.executable, os.path.join(E2E_DIR, "host.py"),
                "--transport", transport]
        if plan_dir is not None:
            argv += ["--plan-dir", plan_dir]
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, bufsize=1, start_new_session=True)
        HostProcess.live.append(self)
        self.pids: set = {self.proc.pid}
        self.segments: set = set()
        self.address = tuple(self._read()["address"])

    def _read(self) -> dict:
        while True:
            line = self.proc.stdout.readline()
            if not line:
                raise HostError(
                    f"server host exited (code {self.proc.poll()})")
            if line.startswith("@e2e "):
                reply = json.loads(line[5:])
                if "error" in reply:
                    raise HostError(reply["error"])
                return reply

    def command(self, word: str) -> dict:
        """Send one control word, return the host's reply."""
        try:
            self.proc.stdin.write(word + "\n")
            self.proc.stdin.flush()
        except OSError as exc:
            raise HostError(f"server host is gone: {exc}") from exc
        return self._read()

    def restart(self) -> None:
        """Timed by ``cold_restart``: a fresh server over the plan_dir."""
        self.address = tuple(self.command("start")["address"])

    def observe(self) -> list:
        """The group's live pids; remembers them and the shared-memory
        segments they map, for the leftover check after teardown."""
        pids = group_pids(self.proc.pid)
        self.pids.update(pids)
        self.segments.update(shm_mapped(pids))
        return pids

    def peak_rss_mib(self) -> float:
        """``VmHWM`` summed over the host and its live workers."""
        return sum(vm_hwm_mib(pid) for pid in self.observe())

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except OSError:
            pass

    def stop(self) -> None:
        """Quit the host (kill it if it will not go)."""
        try:
            if self.proc.poll() is None:
                self.observe()
                self.command("quit")
            self.proc.wait(timeout=20)
        except (HostError, subprocess.TimeoutExpired):
            self.kill()
            self.proc.wait(timeout=10)
        finally:
            for pipe in (self.proc.stdin, self.proc.stdout):
                pipe.close()
            HostProcess.live.remove(self)


def lingering(pids: Sequence[int], grace: float = 5.0) -> list:
    """The *pids* still alive after *grace* seconds."""
    deadline = time.monotonic() + grace
    alive = [p for p in pids if pid_alive(p)]
    while alive and time.monotonic() < deadline:
        time.sleep(0.05)
        alive = [p for p in alive if pid_alive(p)]
    return alive


def unlink_segments(names) -> None:
    for name in names:
        try:
            os.unlink(os.path.join("/dev/shm", name))
        except OSError:
            pass


def arm_watchdog(seconds: float) -> threading.Timer:
    """Hard run timeout: dump every thread's stack, kill what the run
    started, exit 3 — a hang becomes a failed run with evidence.  Killed
    processes cannot unlink their shared memory, so the segments they
    had mapped (and no others) are removed here."""

    def _expire() -> None:
        print(f"e2e watchdog: run exceeded {seconds:.0f}s; stacks follow",
              file=sys.stderr)
        faulthandler.dump_traceback(file=sys.stderr, all_threads=True)
        children = multiprocessing.active_children()  # in-process rungs
        owned = shm_mapped([os.getpid()] + [c.pid for c in children])
        for child in children:
            child.kill()
        for host in list(HostProcess.live):
            host.observe()
            host.kill()
            owned |= host.segments
        unlink_segments(owned)
        os._exit(3)

    timer = threading.Timer(seconds, _expire)
    timer.daemon = True
    timer.start()
    return timer


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict, units: dict) -> str:
    """The last line a workload run prints: the driver's contract."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    })


def load_benchmark_json() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


#: end-to-end metrics of the suite that BENCHMARK.json cannot gate: the
#: driver wants every gated metric from every workload and never a 0,
#: but ``solve_ms_p90`` exists only where a run has the samples for it
#: and ``failed_frac`` is 0 on a healthy run.  The suite prints them and
#: ``--aa`` compares them, against these bounds (0 is absolute).
SUITE_ONLY = (
    {"name": "solve_ms_p90", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "failed_frac", "unit": "1", "better": "lower", "bound": 0},
)


def metric_specs(bench: Optional[dict] = None) -> dict:
    """``name -> {"unit", "better", "bound"}`` of the six end-to-end
    metrics: BENCHMARK.json's four, then the suite's two."""
    bench = bench or load_benchmark_json()
    return {m["name"]: m for m in (*bench["end_to_end"], *SUITE_ONLY)}
