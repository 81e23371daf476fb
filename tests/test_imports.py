"""The boot path, pinned (PERFORMANCE.md "Cold start").

A spawned shard worker, a remote mesh worker and a client must come up
on numpy alone; every package resolves its exports on first use through
:func:`repro._lazy.lazy_exports`.  Each case runs in a fresh
interpreter: what a process has in ``sys.modules`` is the thing under
test, and pytest's own process has long imported everything.
"""

import os
import pkgutil
import subprocess
import sys
import textwrap

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

PACKAGES = ["repro"] + sorted(
    f"repro.{m.name}" for m in pkgutil.iter_modules(repro.__path__) if m.ispkg
)
assert "repro.runtime" in PACKAGES  # an empty parametrize passes silently


def run_fresh(code: str) -> str:
    """Run *code* with ``python -c`` in a new process; its stdout."""
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + inherited if inherited else "")
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "module",
    [
        "repro.runtime.multiproc",  # the coordinator
        "repro.net.worker",  # the remote mesh worker's entry point
        "repro.net.client",
    ],
)
def test_boot_path_leaves_scipy_and_asyncio_out(module):
    run_fresh(
        f"""
        import sys
        import {module}
        heavy = sorted({{"scipy", "asyncio"}} & set(sys.modules))
        assert not heavy, heavy
        """
    )


def test_client_builds_and_probes_a_matrix_without_scipy():
    """A client's register path validates and densifies a matrix; the
    CSR record does both on numpy alone."""
    run_fresh(
        """
        import sys
        import numpy as np
        import repro.net.client
        from repro.linalg.sparse import CsrMatrix

        a = np.array([[4.0, -1.0, 0.0], [-1.0, 4.0, -1.0], [0.0, -1.0, 4.0]])
        # rows given with their columns out of order: the constructor sorts
        raw = CsrMatrix(
            [-1.0, 4.0, -1.0, 4.0, -1.0, 4.0, -1.0],
            [1, 0, 2, 1, 0, 2, 1],
            [0, 2, 5, 7],
            (3, 3),
        )
        for m in (raw, CsrMatrix.from_dense(a)):
            assert np.array_equal(m.to_dense(), a)
        assert "scipy" not in sys.modules
        """
    )


def test_worker_entry_imports_what_the_sweep_loop_runs():
    """What a spawned shard imports to unpickle ``_worker_main``:
    numpy, the shard kernel and the shm ports — no session, simulator,
    factorization or graph code, and no metric registry until a worker
    is asked to count."""
    run_fresh(
        """
        import sys
        import repro.runtime.shard_worker
        loaded = sorted(m for m in sys.modules if m.startswith("repro"))
        assert loaded == [
            "repro",
            "repro._lazy",
            "repro.core",
            "repro.core.shard_kernel",
            "repro.errors",
            "repro.net",
            "repro.net.transport",
            "repro.plan",
            "repro.plan.shard",
            "repro.runtime",
            "repro.runtime.shard_worker",
        ], loaded
        roots = {m.partition(".")[0] for m in sys.modules}
        assert not roots & {"scipy", "asyncio"}, roots
        """
    )


@pytest.mark.parametrize("package", PACKAGES)
def test_package_exports_resolve_on_first_use(package):
    run_fresh(
        f"""
        import importlib
        pkg = importlib.import_module("{package}")
        assert pkg.__all__ and len(set(pkg.__all__)) == len(pkg.__all__)
        listed = dir(pkg)
        for name in pkg.__all__:
            assert name in listed, name
            assert getattr(pkg, name) is not None, name
        scope = {{}}
        exec("from {package} import *", scope)
        assert set(pkg.__all__) <= set(scope)
        try:
            pkg.no_such_name
        except AttributeError as exc:
            assert "{package}" in str(exc) and "no_such_name" in str(exc)
        else:
            raise AssertionError("unknown name resolved")
        """
    )


def test_submodules_resolve_as_attributes():
    run_fresh(
        """
        import repro.core
        assert repro.core.fleet.FleetKernel is repro.core.FleetKernel
        import repro
        assert repro.api.solve_dtm is repro.solve_dtm
        """
    )


def test_no_import_moves_into_a_warm_solve():
    """Lazy exports must not turn into imports on the clock: whatever
    a solve needs is loaded by the end of the first one."""
    run_fresh(
        """
        import sys
        import numpy as np
        from repro.core import ResidualRule
        from repro.plan import build_plan
        from repro.runtime import DtmServer, MultiprocDtmRunner
        from repro.workloads import grid2d_poisson

        graph = grid2d_poisson(12)
        b = np.ones(graph.n)
        rule = ResidualRule(tol=1e-6)

        def second_solve_imports(solve):
            assert solve().converged
            before = set(sys.modules)
            assert solve().converged
            return sorted(set(sys.modules) - before)

        plan = build_plan(graph, n_subdomains=4, seed=0)
        with MultiprocDtmRunner(plan, shards=2) as runner:
            new = second_solve_imports(lambda: runner.solve(b, stopping=rule))
            assert not new, new
        with DtmServer(shards=2) as server:
            plan_id = server.register(plan=plan)
            new = second_solve_imports(
                lambda: server.solve(plan_id, b, stopping=rule)
            )
            assert not new, new
        """
    )
