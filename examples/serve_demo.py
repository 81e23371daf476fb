"""Serving DTM solves from a shared plan store over warm shard pools.

The production shape of the plan/session split: a :class:`DtmServer`
keeps immutable plans in a content-addressed :class:`PlanStore` and one
warm :class:`MultiprocDtmRunner` (resident worker processes, shared
memory, per-edge mailboxes) per plan.  Clients register a system once,
then stream ``solve(b)`` requests:

* registration is content-keyed — re-registering the same matrix and
  configuration returns the same plan id and shares one plan;
* each request pays one back-substitution per subdomain plus the
  truly parallel run itself; the worker pool stays warm in between;
* stopping is reference-free (residual rule), so no direct reference
  solution of the global system is ever computed.

Run:  PYTHONPATH=src python examples/serve_demo.py
"""

import numpy as np

from repro.api import ResidualRule
from repro.runtime import DtmServer, ServeRequest
from repro.workloads.poisson import grid2d_poisson

GRID = 40
SHARDS = 2
REQUESTS = 5
TOL = 1e-7


def main() -> None:
    rng = np.random.default_rng(11)
    graph = grid2d_poisson(GRID, GRID)

    with DtmServer(shards=SHARDS) as server:
        plan_id = server.register(graph, n_subdomains=8, seed=1)
        again = server.register(graph, n_subdomains=8, seed=1)
        print(f"registered plan {plan_id} (re-register -> {again})")

        requests = (
            ServeRequest(
                plan_id=plan_id,
                b=rng.standard_normal(GRID * GRID),
                tol=TOL,
                stopping=ResidualRule(tol=TOL),
                tag=i,
            )
            for i in range(REQUESTS)
        )
        for resp in server.serve(requests):
            res = resp.result
            print(
                f"  request {resp.tag}: converged={res.converged} "
                f"rr={res.relative_residual:.2e} "
                f"in {resp.wall_seconds * 1e3:.0f} ms "
                f"({res.iterations} subdomain solves)"
            )

        snap = server.metrics_snapshot()
        solves = int(snap.total("repro_server_solves_total"))
        warm = int(snap.total("repro_server_warm_hits_total"))
        hist = snap.value("repro_server_solve_seconds", plan=plan_id)
        seconds = hist["sum"]
        print(
            f"served {solves} solves, {warm} on a warm pool, "
            f"{seconds:.2f} s total"
        )


if __name__ == "__main__":
    main()
