"""Remote serving: a DTM solve service on a socket, and its client.

The network shape of the serving story: a :class:`DtmServer` (warm
sharded runners over a content-addressed plan store) wrapped by a
:class:`DtmTcpFrontend` on a loopback socket, driven by a
:class:`DtmClient` over the JSON+binary wire protocol:

* ``register`` ships the sparse system (CSR triplets) once; the
  server plans, factorizes and spawns the warm worker pool — the
  returned plan id is content-addressed, so re-registering the same
  system is free;
* ``solve`` streams right-hand sides; each request costs one
  back-substitution per subdomain plus the truly parallel run;
* bad requests (unknown plan id here) come back as error responses —
  the serve loop and the connection survive them;
* ``metrics`` (the server's merged counters) and ``shutdown``
  complete the protocol.

Run:  PYTHONPATH=src python examples/remote_client.py
"""

import numpy as np

from repro.api import ResidualRule, connect_dtm
from repro.errors import RemoteError
from repro.net import DtmTcpFrontend
from repro.runtime import DtmServer
from repro.workloads.poisson import grid2d_poisson

GRID = 40
SHARDS = 2
REQUESTS = 4
TOL = 1e-7


def main() -> None:
    rng = np.random.default_rng(11)
    graph = grid2d_poisson(GRID, GRID)

    server = DtmServer(shards=SHARDS)
    with DtmTcpFrontend(server, token="demo-token") as frontend:
        host, port = frontend.address
        print(f"serving on {host}:{port}")

        with connect_dtm((host, port), token="demo-token") as client:
            plan_id = client.register(graph, n_subdomains=8, seed=1)
            print(f"registered plan {plan_id} over the wire")

            for i in range(REQUESTS):
                b = rng.standard_normal(GRID * GRID)
                res = client.solve(
                    plan_id,
                    b,
                    tol=TOL,
                    stopping=ResidualRule(tol=TOL),
                )
                print(
                    f"  solve {i}: converged={res.converged} "
                    f"rr={res.relative_residual:.2e} "
                    f"({res.iterations} subdomain solves)"
                )

            try:
                client.solve("no-such-plan", np.zeros(GRID * GRID))
            except RemoteError as exc:
                print(f"  bad request -> {exc} (connection survives)")

            snap = client.metrics()
            solves = int(snap.total("repro_server_solves_total"))
            errors = int(snap.total("repro_server_errors_total"))
            plans = int(snap.total("repro_plan_store_plans"))
            print(
                f"served {solves} solves, {errors} errors, "
                f"{plans} plan(s) resident"
            )
            client.shutdown()
    print("server shut down")


if __name__ == "__main__":
    main()
