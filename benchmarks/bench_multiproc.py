"""Multiprocess sharding benchmark: true parallelism vs the simulator.

Measures the headline of ISSUE 4 — the :class:`MultiprocDtmRunner`
executing DTM with real OS-process parallelism over shared memory —
against the single-process event-driven fleet simulator solving the
same Poisson system to the same reference-free residual tolerance:

* **baseline_s** — ``SolverSession`` over the fleet
  ``DtmSimulator`` (the repo's fastest single-process DTM backend,
  configured with the solve throttle that minimizes its event count);
* **first_solve_s** — a cold sharded solve, *including* worker spawn
  and interpreter start-up (what a one-shot caller pays);
* **solve_s** — a warm-pool solve (workers resident, waves cold): the
  serving-path number and the one the **speedup** ratios gate;
* **speedup_at_4** — ``baseline_s / solve_s`` at four shards, the
  regression-gated headline (floor: 1.5x).

The speedup has two independent sources: eliminating the event-queue
interpretation entirely (dominant on few-core hosts — this container
is single-core, where the OS merely time-slices the shards) and real
hardware parallelism on multi-core hosts, which compounds on top.
Wall-clock ratios on one machine-and-run are host-relative and
therefore robust to slow CI hardware, like the other bench gates.

Results land in ``benchmarks/BENCH_multiproc.json`` and are gated by
``scripts/check_bench.py`` (which hard-fails when the baseline file is
missing).

Run:  PYTHONPATH=src python benchmarks/bench_multiproc.py
      PYTHONPATH=src python benchmarks/bench_multiproc.py --quick
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from repro.core.convergence import ResidualRule  # noqa: E402
from repro.plan.plan import build_plan  # noqa: E402
from repro.plan.session import SolverSession  # noqa: E402
from repro.runtime.multiproc import MultiprocDtmRunner  # noqa: E402
from repro.workloads.poisson import grid2d_poisson  # noqa: E402

DEFAULT_OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "BENCH_multiproc.json")

#: absolute floor the 4-shard speedup must clear (acceptance criterion)
SPEEDUP_FLOOR = 1.5

#: (nx, n_parts, parts_shape); the large case is the >=100k-unknown
#: acceptance workload, the small one is the CI quick-mode case
CASES = {
    120: dict(n_parts=16, parts_shape=(4, 4)),
    320: dict(n_parts=64, parts_shape=(8, 8)),
}
QUICK_CASES = (120,)

#: baseline simulator knobs: solve throttle at the minimum link delay
#: (fewest redundant resolves — the strongest single-process setup)
#: and an observer cadence matched to the convergence horizon
_BASELINE = dict(min_solve_interval=10.0)
_BASELINE_RUN = dict(t_max=400_000.0, sample_interval=100.0)

TOL = 1e-6


def bench_case(nx: int, *, n_parts: int, parts_shape: tuple[int, int],
               shards=(2, 4), wall_budget: float = 300.0) -> dict:
    graph = grid2d_poisson(nx, nx)
    t0 = time.perf_counter()
    plan = build_plan(graph, n_subdomains=n_parts,
                      grid_shape=(nx, nx), parts_shape=parts_shape)
    plan_build_s = time.perf_counter() - t0
    rule = ResidualRule(tol=TOL)

    session = SolverSession(plan, **_BASELINE)
    t0 = time.perf_counter()
    base = session.solve(stopping=rule, tol=None, **_BASELINE_RUN)
    baseline_s = time.perf_counter() - t0
    if not base.converged:
        raise RuntimeError(
            f"nx={nx}: baseline simulator failed to converge "
            f"(rr={base.relative_residual:.2e})")

    case = {
        "nx": nx,
        "n": plan.n,
        "n_parts": n_parts,
        "tol": TOL,
        "plan_build_s": plan_build_s,
        "baseline_s": baseline_s,
        "baseline_iterations": base.iterations,
        "shards": {},
    }
    for n_shards in shards:
        with MultiprocDtmRunner(plan, shards=n_shards) as runner:
            t0 = time.perf_counter()
            first = runner.solve(stopping=rule, wall_budget=wall_budget)
            first_solve_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            warm = runner.solve(stopping=rule, wall_budget=wall_budget)
            solve_s = time.perf_counter() - t0
        if not (first.converged and warm.converged):
            raise RuntimeError(
                f"nx={nx} shards={n_shards}: multiproc solve failed to "
                f"converge (rr={warm.relative_residual:.2e})")
        case["shards"][str(n_shards)] = {
            "first_solve_s": first_solve_s,
            "solve_s": solve_s,
            "speedup": baseline_s / solve_s,
            "relative_residual": warm.relative_residual,
            "sweeps": [rep.sweeps for rep in warm.shard_reports],
        }
    four = case["shards"].get("4")
    case["speedup_at_4"] = four["speedup"] if four else None
    return case


def run_bench(cases=tuple(sorted(CASES)), *, shards=(2, 4),
              out: str = DEFAULT_OUT) -> dict:
    results = []
    for nx in cases:
        spec = CASES[nx]
        print(f"case nx={nx} ({nx * nx} unknowns, "
              f"P={spec['n_parts']}) ...", flush=True)
        case = bench_case(nx, shards=shards, **spec)
        results.append(case)
        for label, rec in case["shards"].items():
            print(f"  shards={label}: {rec['solve_s'] * 1e3:8.1f} ms "
                  f"({rec['speedup']:.1f}x vs simulator "
                  f"{case['baseline_s']:.2f} s)")
    headline = max((c["speedup_at_4"] for c in results
                    if c["speedup_at_4"] is not None), default=None)
    record = {
        "benchmark": "multiproc_sharding",
        "tol": TOL,
        "speedup_floor": SPEEDUP_FLOOR,
        "cases": results,
        "speedup_at_4": headline,
    }
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
    floor_cases = [c for c in record["cases"]
                   if c["speedup_at_4"] is not None]
    bad = [c for c in floor_cases if c["speedup_at_4"] < SPEEDUP_FLOOR]
    if bad:
        for c in bad:
            print(f"FAIL: nx={c['nx']} speedup_at_4="
                  f"{c['speedup_at_4']:.2f} < {SPEEDUP_FLOOR}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
