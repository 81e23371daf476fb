"""Persistent plan store benchmark: mmap load vs full rebuild.

Measures the headline of ISSUE 7 — planning is the expensive tier
(1.7 s for the 102k-unknown sparse build, BENCH_planbuild),
so a durable artifact that loads in milliseconds changes what a
restart or a new replica costs.  Per case the same plan is produced
two ways:

* **rebuild_s** — ``build_plan(...)``: the one build the repo has
  (SuperLU locals, one subdomain after another), i.e. what a cold
  process would actually pay;
* **load_mmap_s** — ``load_plan(path)`` over the artifact written by
  ``save_plan``: one read-only mmap, zero-copy ``np.frombuffer``
  views (best of ``LOAD_REPEATS`` — load is I/O bound and the
  interesting number is the warm-cache one a restart sees);
* **load_eager_s** — ``load_plan(path, mmap=False)`` for comparison
  (full read into memory, same bits).

**speedup** = ``rebuild_s / load_mmap_s``; the nx=320 value is the
regression-gated headline (floor: 10x).  The built-in guard solves
the same right-hand side on the built plan and on the mmap-loaded
plan — over a bounded, deterministic sim-time horizon, so the event
streams are replayed exactly — and fails the bench unless the
results are **bitwise identical**: a loaded plan is the plan, not an
approximation of it.

The run also measures a **warm server restart**: a
``DtmServer(plan_dir=...)`` is populated, torn down, and a fresh
server over the same directory recovers the plan straight from the
mmap-loaded artifact.  ``warm_restart`` compares time-to-plan-ready —
what the cold process paid to build + persist (``cold_register_s``)
vs what the restarted server pays to have the same plan solvable
(``warm_ready_s``, the disk-tier load on first access).  The guard
solves the same bounded, deterministic horizon on both servers and
asserts the restarted solve is bitwise-identical with exactly one
disk load (no replanning).

Results land in ``benchmarks/BENCH_planstore.json`` and are gated by
``scripts/check_bench.py`` (which hard-fails when the baseline file
is missing).

Run:  PYTHONPATH=src python benchmarks/bench_planstore.py
      PYTHONPATH=src python benchmarks/bench_planstore.py --quick
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.core.convergence import ResidualRule  # noqa: E402
from repro.plan import build_plan, load_plan, save_plan  # noqa: E402
from repro.runtime.server import DtmServer  # noqa: E402
from repro.workloads.poisson import grid2d_poisson  # noqa: E402

DEFAULT_OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "BENCH_planstore.json")

#: absolute floor the nx=320 load-vs-rebuild speedup must clear
#: (acceptance: mmap load >= 10x faster than a rebuild)
SPEEDUP_FLOOR = 10.0

#: mmap/eager loads are repeated and the best is kept (I/O noise)
LOAD_REPEATS = 3

#: the solve guard's reference-free stopping tolerance
SOLVE_TOL = 1e-6

#: sim-time horizon of the bitwise solve guards: bounded so the
#: guard is cheap even at nx=320, deterministic so the built and
#: loaded plans replay the same event stream and stop at the same
#: event, making the comparison exact
GUARD_T_MAX = 120.0

CASES = {
    120: dict(n_parts=16, parts_shape=(4, 4)),
    320: dict(n_parts=64, parts_shape=(8, 8)),
}
QUICK_CASES = (120,)

#: the warm-restart wall-clock case runs on this grid (quick enough
#: for CI smoke while still dominated by real planning cost)
RESTART_NX = 120


def _build(nx: int, *, n_parts: int, parts_shape) -> tuple:
    graph = grid2d_poisson(nx, nx)
    t0 = time.perf_counter()
    plan = build_plan(graph, n_subdomains=n_parts, grid_shape=(nx, nx),
                      parts_shape=parts_shape)
    return graph, plan, time.perf_counter() - t0


def _best_load(path: str, *, mmap: bool) -> tuple:
    best = None
    plan = None
    for _ in range(LOAD_REPEATS):
        t0 = time.perf_counter()
        candidate = load_plan(path, mmap=mmap)
        dt = time.perf_counter() - t0
        if best is None or dt < best:
            best, plan = dt, candidate
    return plan, best


def _solve(plan, b) -> np.ndarray:
    session = plan.session()
    return session.solve(b, t_max=GUARD_T_MAX,
                         stopping=ResidualRule(tol=SOLVE_TOL)).x


def bench_case(nx: int, *, n_parts: int,
               parts_shape: tuple[int, int]) -> dict:
    graph, built, rebuild_s = _build(nx, n_parts=n_parts,
                                     parts_shape=parts_shape)
    workdir = tempfile.mkdtemp(prefix="bench_planstore_")
    try:
        path = os.path.join(workdir, "case.plan")
        t0 = time.perf_counter()
        save_plan(built, path)
        save_s = time.perf_counter() - t0
        artifact_bytes = os.path.getsize(path)

        mapped, load_mmap_s = _best_load(path, mmap=True)
        eager, load_eager_s = _best_load(path, mmap=False)

        # eager and mmap loads must agree bit for bit without a solve
        for le, lm in zip(eager.base_locals, mapped.base_locals):
            if not (np.array_equal(le.x0, lm.x0)
                    and np.array_equal(le.X, lm.X)):
                raise RuntimeError(
                    f"nx={nx}: eager load diverges from mmap load")

        # the headline guard: a loaded-plan solve is bitwise-identical
        # to the built-plan solve (same rhs, same stopping rule)
        x_built = _solve(built, graph.sources)
        x_loaded = _solve(mapped, graph.sources)
        if not np.array_equal(x_built, x_loaded):
            raise RuntimeError(
                f"nx={nx}: mmap-loaded plan solve is not "
                "bitwise-identical to the built plan solve")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    return {
        "nx": nx,
        "n": built.n,
        "n_parts": n_parts,
        "rebuild_s": rebuild_s,
        "save_s": save_s,
        "artifact_bytes": artifact_bytes,
        "load_mmap_s": load_mmap_s,
        "load_eager_s": load_eager_s,
        "speedup": rebuild_s / load_mmap_s,
        "bitwise_solve": True,
    }


def bench_warm_restart(nx: int = RESTART_NX) -> dict:
    """Time-to-plan-ready: restart-from-plan_dir vs replan."""
    spec = CASES[nx]
    graph = grid2d_poisson(nx, nx)
    b = graph.sources
    guard = dict(t_max=GUARD_T_MAX,
                 stopping=ResidualRule(tol=SOLVE_TOL))
    plan_dir = tempfile.mkdtemp(prefix="bench_planstore_dir_")
    try:
        # cold: what a fresh process pays without the artifact tier
        # (build + persist, through the server's own register path)
        server1 = DtmServer(shards=1, plan_dir=plan_dir)
        t0 = time.perf_counter()
        plan_id = server1.register(
            graph, n_subdomains=spec["n_parts"], grid_shape=(nx, nx),
            parts_shape=spec["parts_shape"], use_cache=False)
        cold_register_s = time.perf_counter() - t0
        x_cold = server1.solve(plan_id, b, **guard).x
        server1.close()

        # restart: a brand-new server over the populated plan_dir has
        # the plan solvable after one mmap disk load — no register,
        # no replan.  store.get is exactly what the first solve pays
        # before simulation starts.
        server2 = DtmServer(shards=1, plan_dir=plan_dir)
        t0 = time.perf_counter()
        server2.store.get(plan_id)
        warm_ready_s = time.perf_counter() - t0
        x_warm = server2.solve(plan_id, b, **guard).x
        n_disk_loads = int(server2.store.metrics_snapshot().total(
            "repro_plan_store_disk_loads_total"))
        server2.close()
    finally:
        shutil.rmtree(plan_dir, ignore_errors=True)

    if n_disk_loads != 1:
        raise RuntimeError(
            f"warm restart expected exactly 1 disk load, saw "
            f"{n_disk_loads} — the server replanned or missed the tier")
    if not np.array_equal(x_cold, x_warm):
        raise RuntimeError(
            "warm-restart solve is not bitwise-identical to the "
            "pre-restart solve")
    return {
        "nx": nx,
        "n": int(graph.n),
        "cold_register_s": cold_register_s,
        "warm_ready_s": warm_ready_s,
        "restart_speedup": cold_register_s / warm_ready_s,
        "guard_t_max": GUARD_T_MAX,
        "n_disk_loads": n_disk_loads,
        "bitwise_solve": True,
    }


def run_bench(cases=tuple(sorted(CASES)), *, warm: bool = True,
              out: str = DEFAULT_OUT) -> dict:
    results = []
    for nx in cases:
        spec = CASES[nx]
        print(f"case nx={nx} ({nx * nx} unknowns, "
              f"P={spec['n_parts']}) ...", flush=True)
        case = bench_case(nx, **spec)
        results.append(case)
        print(f"  rebuild {case['rebuild_s']:8.2f} s | save "
              f"{case['save_s']:6.3f} s | mmap load "
              f"{case['load_mmap_s'] * 1e3:8.1f} ms -> "
              f"{case['speedup']:.1f}x "
              f"({case['artifact_bytes'] / 1e6:.1f} MB)", flush=True)
    at_320 = next((c["speedup"] for c in results if c["nx"] == 320),
                  None)
    record = {
        "benchmark": "planstore",
        "speedup_floor": SPEEDUP_FLOOR,
        "solve_tol": SOLVE_TOL,
        "guard_t_max": GUARD_T_MAX,
        "load_repeats": LOAD_REPEATS,
        "cases": results,
        "speedup_at_320": at_320,
        "warm_restart": None,
    }
    if warm:
        print(f"warm restart case nx={RESTART_NX} ...", flush=True)
        record["warm_restart"] = bench_warm_restart()
        wr = record["warm_restart"]
        print(f"  cold register {wr['cold_register_s']:6.2f} s | "
              f"restarted plan-ready "
              f"{wr['warm_ready_s'] * 1e3:8.1f} ms -> "
              f"{wr['restart_speedup']:.1f}x", flush=True)
    if out:
        with open(out, "w") as fh:
            json.dump(record, fh, indent=2)
        print(f"wrote {out}")
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small case only (CI tier-2 mode)")
    ap.add_argument("--out", default=DEFAULT_OUT)
    args = ap.parse_args(argv)
    cases = QUICK_CASES if args.quick else tuple(sorted(CASES))
    record = run_bench(cases, out=args.out)
    failed = False
    at_320 = record["speedup_at_320"]
    if at_320 is not None and at_320 < SPEEDUP_FLOOR:
        print(f"FAIL: speedup_at_320={at_320:.2f} < {SPEEDUP_FLOOR}")
        failed = True
    wr = record["warm_restart"]
    if wr is not None and wr["restart_speedup"] <= 1.0:
        print(f"FAIL: warm restart ({wr['warm_ready_s']:.3f} s to "
              "plan-ready) was not faster than a cold replan "
              f"({wr['cold_register_s']:.2f} s)")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
