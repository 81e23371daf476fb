"""Network transport benchmark: socket shard mailboxes vs shared memory.

Measures the socket fabric — :class:`MeshTransport` carrying the
sharded runtime's latest-wins wave frames over loopback sockets —
against the :class:`ShmTransport` baseline on the same Poisson
systems, to the same reference-free residual tolerance, plus one full
client round trip through the serving front end:

* **shm.solve_s / mesh.solve_s** — warm-pool solves (workers resident,
  waves cold) on each fabric: the median of ``WARM_REPEATS`` solves,
  each against a fresh right-hand side (a repeated one lets the first
  probe stop on the previous solve's still-valid states, which times
  the probe schedule, not the fabric); cold ``first_solve_s`` (spawn
  included) is recorded for context;
* **mesh_vs_shm** — ``shm.solve_s / mesh.solve_s`` per case, the
  regression-gated ratio.  1.0 means the socket fabric matches shared
  memory; the floor (``ratio_floor``) guards against the transport
  regressing into frame-thrash (see PERFORMANCE.md "Transports" — the
  post-emission yield is what keeps boundary data fresh, and losing it
  collapses this ratio by an order of magnitude);
* **client.roundtrip_s** — one ``DtmClient.solve`` through a live
  :class:`DtmTcpFrontend` + :class:`DtmServer` (wire framing + serve
  loop + warm sharded solve), the serving-path latency number (not
  gated: it rides the same solve the ratio already gates).

The 100×100 case is the ISSUE 5 acceptance workload: a ≥10k-unknown
loopback socket run at 2 shards converging under
``ResidualRule(1e-6)``.

Results land in ``benchmarks/BENCH_net.json`` and are gated by
``scripts/check_bench.py`` (which hard-fails when the baseline file
is missing).

Run:  PYTHONPATH=src python benchmarks/bench_net.py
      PYTHONPATH=src python benchmarks/bench_net.py --quick
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import numpy as np  # noqa: E402

from repro.core.convergence import ResidualRule  # noqa: E402
from repro.net import DtmTcpFrontend  # noqa: E402
from repro.net.client import DtmClient  # noqa: E402
from repro.plan.plan import build_plan  # noqa: E402
from repro.runtime.multiproc import MultiprocDtmRunner  # noqa: E402
from repro.runtime.server import DtmServer  # noqa: E402
from repro.workloads.poisson import grid2d_poisson  # noqa: E402

DEFAULT_OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "BENCH_net.json")

#: absolute floor the warm mesh-vs-shm ratio must clear (a healthy
#: socket fabric sits near or above 1.0 on this single-machine host;
#: frame-thrash regressions collapse it to ~0.01)
RATIO_FLOOR = 0.2

#: (nx → case config); 100 is the ≥10k-unknown acceptance workload,
#: 60 the CI quick-mode case
CASES = {
    60: dict(n_parts=9, parts_shape=(3, 3)),
    100: dict(n_parts=16, parts_shape=(4, 4)),
}
QUICK_CASES = (60,)

SHARDS = 2
TOL = 1e-6
WARM_REPEATS = 15


def _runner_times(plan, transport: str, wall_budget: float) -> dict:
    rule = ResidualRule(tol=TOL)
    rng = np.random.default_rng(5)  # the same stream on both fabrics
    with MultiprocDtmRunner(plan, shards=SHARDS,
                            transport=transport) as runner:
        t0 = time.perf_counter()
        first = runner.solve(stopping=rule, wall_budget=wall_budget)
        first_solve_s = time.perf_counter() - t0
        warm_s = []
        for _ in range(WARM_REPEATS):
            b = rng.standard_normal(plan.n)
            t0 = time.perf_counter()
            warm = runner.solve(b, stopping=rule,
                                wall_budget=wall_budget)
            warm_s.append(time.perf_counter() - t0)
            if not (first.converged and warm.converged):
                raise RuntimeError(
                    f"{transport}: solve failed to converge "
                    f"(rr={warm.relative_residual:.2e})")
    return {
        "first_solve_s": first_solve_s,
        "solve_s": statistics.median(warm_s),
        "relative_residual": warm.relative_residual,
        "sweeps": [rep.sweeps for rep in warm.shard_reports],
    }


def _client_roundtrip(plan, wall_budget: float) -> dict:
    rng = np.random.default_rng(17)
    b = rng.standard_normal(plan.n)
    rule = ResidualRule(tol=TOL)
    with DtmServer(shards=SHARDS) as server:
        with DtmTcpFrontend(server) as frontend:
            with DtmClient(frontend.address) as client:
                plan_id = server.register(plan=plan)
                # cold call spawns the pool; the round trip we report
                # is the serving-path (warm) request
                client.solve(plan_id, b, tol=TOL, stopping=rule)
                t0 = time.perf_counter()
                res = client.solve(plan_id, b, tol=TOL, stopping=rule)
                roundtrip_s = time.perf_counter() - t0
    if not res.converged:
        raise RuntimeError("client round trip failed to converge")
    return {
        "roundtrip_s": roundtrip_s,
        "relative_residual": res.relative_residual,
    }


def bench_case(nx: int, *, n_parts: int, parts_shape: tuple[int, int],
               wall_budget: float = 300.0) -> dict:
    graph = grid2d_poisson(nx, nx)
    t0 = time.perf_counter()
    plan = build_plan(graph, n_subdomains=n_parts,
                      grid_shape=(nx, nx), parts_shape=parts_shape)
    plan_build_s = time.perf_counter() - t0

    shm = _runner_times(plan, "shm", wall_budget)
    mesh = _runner_times(plan, "mesh", wall_budget)
    client = _client_roundtrip(plan, wall_budget)
    return {
        "nx": nx,
        "n": plan.n,
        "n_parts": n_parts,
        "shards": SHARDS,
        "tol": TOL,
        "plan_build_s": plan_build_s,
        "shm": shm,
        "mesh": mesh,
        "client": client,
        "mesh_vs_shm": shm["solve_s"] / mesh["solve_s"],
    }


def run_bench(cases=tuple(sorted(CASES)), *,
              out: str = DEFAULT_OUT) -> dict:
    results = []
    for nx in cases:
        spec = CASES[nx]
        print(f"case nx={nx} ({nx * nx} unknowns, "
              f"P={spec['n_parts']}) ...", flush=True)
        case = bench_case(nx, **spec)
        results.append(case)
        print(f"  shm  warm: {case['shm']['solve_s'] * 1e3:8.1f} ms"
              f"   mesh warm: {case['mesh']['solve_s'] * 1e3:8.1f} ms"
              f"   ratio {case['mesh_vs_shm']:.2f}"
              f"   client rt {case['client']['roundtrip_s'] * 1e3:.0f} ms")
    largest = max(results, key=lambda c: c["nx"])
    record = {
        "benchmark": "net_transport",
        "tol": TOL,
        "shards": SHARDS,
        "ratio_floor": RATIO_FLOOR,
        "warm_repeats": WARM_REPEATS,
        "cases": results,
        "mesh_vs_shm_at_2": largest["mesh_vs_shm"],
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
    bad = [c for c in record["cases"] if c["mesh_vs_shm"] < RATIO_FLOOR]
    if bad:
        for c in bad:
            print(f"FAIL: nx={c['nx']} mesh_vs_shm="
                  f"{c['mesh_vs_shm']:.2f} < {RATIO_FLOOR}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
