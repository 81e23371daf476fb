"""Worker-mesh benchmark: is the data path peer-to-peer, and recovery.

Measures the tentpole of ISSUE 8 — :class:`MeshTransport` shipping
neighbor wave frames worker-to-worker, with the coordinator's hub
relaying only for senders without a peer socket — on Poisson systems
under ``ResidualRule(1e-6)`` at 4 shards:

* **fallback_share** — hub-relayed wave frames over all wave frames
  (``repro_mesh_fallback_total / repro_mesh_frames_total``, the
  ``metrics_snapshot()`` delta across the warm solve of an ``obs=True``
  runner), the gated number: at most ``fallback_ceiling`` in every
  case.  Once peers are dialled the coordinator must carry no
  steady-state waves; a mesh whose peer sockets never come up (or keep
  dying) degrades to the hub relay and shows here as a share near 1,
  whatever the host's speed.  ``mesh.solve_s`` is recorded beside it;
* **recovery** — one worker hard-killed mid-solve
  (``ShardFaults(kill_at_sweep=25)``): the coordinator must detect the
  death, respawn and re-snapshot the shard, and complete to the *same*
  stopping decision as the failure-free control run.  The gated number
  is ``overhead`` (killed wall clock / clean wall clock), with
  ``overhead_ceiling`` as the backstop — recovery is allowed to cost
  extra rounds, never a hang or a wrong answer (``same_decision`` and
  ``x_max_diff`` are checked too).

The 100×100 case is the ISSUE 8 acceptance workload; 60×60 is the CI
quick-mode case (and the recovery workload — recovery exercises the
control path, whose cost barely depends on the system size).

Results land in ``benchmarks/BENCH_mesh.json`` and are gated by
``scripts/check_bench.py`` (which hard-fails when the baseline file
is missing).

Run:  PYTHONPATH=src python benchmarks/bench_mesh.py
      PYTHONPATH=src python benchmarks/bench_mesh.py --quick
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from repro.core.convergence import ResidualRule  # noqa: E402
from repro.net.faults import FaultPlan, ShardFaults  # noqa: E402
from repro.plan.plan import build_plan  # noqa: E402
from repro.runtime.multiproc import MultiprocDtmRunner  # noqa: E402
from repro.workloads.poisson import grid2d_poisson  # noqa: E402

DEFAULT_OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "BENCH_mesh.json")

#: ceiling on the warm solve's hub-relayed share of wave frames (peers
#: are dialled during the first solve; a relayed frame after that
#: means a peer socket is missing or flapping)
FALLBACK_CEILING = 0.01

#: ceiling on killed-run wall clock over the clean control run: the
#: respawn + re-snapshot + extra verification rounds must stay a
#: bounded constant cost, not a timeout-ish stall
OVERHEAD_CEILING = 10.0

#: (nx → case config); 100 is the acceptance workload, 60 the CI
#: quick-mode and recovery case
CASES = {
    60: dict(n_parts=9, parts_shape=(3, 3)),
    100: dict(n_parts=16, parts_shape=(4, 4)),
}
QUICK_CASES = (60,)
RECOVERY_NX = 60

SHARDS = 4
TOL = 1e-6
KILL_AT_SWEEP = 25


def _runner_times(plan, wall_budget: float) -> dict:
    rule = ResidualRule(tol=TOL)
    with MultiprocDtmRunner(plan, shards=SHARDS, transport="mesh",
                            obs=True) as runner:
        t0 = time.perf_counter()
        first = runner.solve(stopping=rule, wall_budget=wall_budget)
        first_solve_s = time.perf_counter() - t0
        before = runner.metrics_snapshot()
        t0 = time.perf_counter()
        warm = runner.solve(stopping=rule, wall_budget=wall_budget)
        solve_s = time.perf_counter() - t0
        after = runner.metrics_snapshot()
    if not (first.converged and warm.converged):
        raise RuntimeError(
            f"mesh: solve failed to converge "
            f"(rr={warm.relative_residual:.2e})")
    frames, fallback = (
        after.total(name) - before.total(name)
        for name in ("repro_mesh_frames_total",
                     "repro_mesh_fallback_total"))
    if frames <= 0:
        raise RuntimeError("the warm solve emitted no wave frames")
    return {
        "first_solve_s": first_solve_s,
        "solve_s": solve_s,
        "relative_residual": warm.relative_residual,
        "sweeps": [rep.sweeps for rep in warm.shard_reports],
        "frames": frames,
        "fallback_frames": fallback,
    }


def bench_case(nx: int, *, n_parts: int, parts_shape: tuple[int, int],
               wall_budget: float = 300.0) -> dict:
    graph = grid2d_poisson(nx, nx)
    plan = build_plan(graph, n_subdomains=n_parts,
                      grid_shape=(nx, nx), parts_shape=parts_shape)
    mesh = _runner_times(plan, wall_budget)
    return {
        "nx": nx,
        "n": plan.n,
        "n_parts": n_parts,
        "shards": SHARDS,
        "tol": TOL,
        "mesh": mesh,
        "fallback_share": mesh["fallback_frames"] / mesh["frames"],
    }


def bench_recovery(nx: int = RECOVERY_NX,
                   wall_budget: float = 300.0) -> dict:
    spec = CASES[nx]
    graph = grid2d_poisson(nx, nx)
    plan = build_plan(graph, n_subdomains=spec["n_parts"],
                      grid_shape=(nx, nx),
                      parts_shape=spec["parts_shape"])
    rule = ResidualRule(tol=TOL)

    with MultiprocDtmRunner(plan, shards=SHARDS,
                            transport="mesh") as runner:
        t0 = time.perf_counter()
        clean = runner.solve(stopping=rule, wall_budget=wall_budget)
        clean_s = time.perf_counter() - t0
        if runner.n_recoveries:
            raise RuntimeError("control run needed recoveries")

    faults = FaultPlan({SHARDS // 2:
                        ShardFaults(kill_at_sweep=KILL_AT_SWEEP)})
    with MultiprocDtmRunner(plan, shards=SHARDS, transport="mesh",
                            faults=faults) as runner:
        t0 = time.perf_counter()
        killed = runner.solve(stopping=rule, wall_budget=wall_budget)
        killed_s = time.perf_counter() - t0
        n_recoveries = runner.n_recoveries

    if not (clean.converged and killed.converged):
        raise RuntimeError("recovery case failed to converge")
    if n_recoveries < 1:
        raise RuntimeError(
            "the scripted kill never fired (no recovery recorded)")
    return {
        "nx": nx,
        "n": plan.n,
        "shards": SHARDS,
        "tol": TOL,
        "kill_at_sweep": KILL_AT_SWEEP,
        "clean_s": clean_s,
        "killed_s": killed_s,
        "overhead": killed_s / clean_s,
        "n_recoveries": n_recoveries,
        "same_decision": (killed.stopped_by == clean.stopped_by
                          and killed.converged == clean.converged),
        "killed_relative_residual": killed.relative_residual,
        "x_max_diff": float(np.max(np.abs(killed.x - clean.x))),
    }


def run_bench(cases=tuple(sorted(CASES)), *, recovery: bool = True,
              out: str = DEFAULT_OUT) -> dict:
    results = []
    for nx in cases:
        spec = CASES[nx]
        print(f"case nx={nx} ({nx * nx} unknowns, "
              f"P={spec['n_parts']}) ...", flush=True)
        case = bench_case(nx, **spec)
        results.append(case)
        print(f"  mesh warm: {case['mesh']['solve_s'] * 1e3:8.1f} ms"
              f"   frames {case['mesh']['frames']:.0f}"
              f"   via hub {case['mesh']['fallback_frames']:.0f}"
              f"   share {case['fallback_share']:.4f}")
    largest = max(results, key=lambda c: c["nx"])
    record = {
        "benchmark": "mesh_transport",
        "tol": TOL,
        "shards": SHARDS,
        "fallback_ceiling": FALLBACK_CEILING,
        "overhead_ceiling": OVERHEAD_CEILING,
        "cases": results,
        "fallback_share_at_4": largest["fallback_share"],
    }
    if recovery:
        print(f"recovery case nx={RECOVERY_NX} "
              f"(kill shard {SHARDS // 2} at sweep {KILL_AT_SWEEP}) ...",
              flush=True)
        rec = bench_recovery()
        record["recovery"] = rec
        print(f"  clean: {rec['clean_s'] * 1e3:8.1f} ms"
              f"   killed: {rec['killed_s'] * 1e3:8.1f} ms"
              f"   overhead {rec['overhead']:.2f}x"
              f"   recoveries {rec['n_recoveries']}"
              f"   max|dx| {rec['x_max_diff']:.2e}")
    if out:
        with open(out, "w") as fh:
            json.dump(record, fh, indent=2)
        print(f"wrote {out}")
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="small case only (CI tier-2 mode)")
    ap.add_argument("--no-recovery", action="store_true",
                    help="skip the kill-mid-solve recovery case")
    ap.add_argument("--out", default=DEFAULT_OUT)
    args = ap.parse_args(argv)
    cases = QUICK_CASES if args.quick else tuple(sorted(CASES))
    record = run_bench(cases, recovery=not args.no_recovery,
                       out=args.out)
    failed = False
    for case in record["cases"]:
        if case["fallback_share"] > FALLBACK_CEILING:
            print(f"FAIL: nx={case['nx']} fallback_share="
                  f"{case['fallback_share']:.4f} > {FALLBACK_CEILING}")
            failed = True
    rec = record.get("recovery")
    if rec is not None:
        if rec["overhead"] > OVERHEAD_CEILING:
            print(f"FAIL: recovery overhead {rec['overhead']:.2f}x "
                  f"> {OVERHEAD_CEILING}x ceiling")
            failed = True
        if not rec["same_decision"]:
            print("FAIL: killed run reached a different stopping "
                  "decision than the clean run")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
