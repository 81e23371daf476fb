"""High-level one-call API for solving SPD systems with DTM/VTM.

These wrappers run the full pipeline — electric graph, partitioning,
EVS, DTLP insertion, solve — with sensible defaults, for users who just
want ``x = solve(...)``.  Since the plan/session refactor they are thin:
each call builds **or fetches from the in-process plan cache** a
:class:`~repro.plan.SolverPlan` (the expensive, matrix-only part) and
runs a one-shot :class:`~repro.plan.SolverSession` against the
requested right-hand side.  Repeated calls against the same matrix
therefore only pay one back-substitution per subdomain plus the run
itself; for streams of right-hand sides, hold a session yourself::

    from repro.plan import get_plan

    plan = get_plan(a, b, n_subdomains=16)
    session = plan.session()
    for b_t in rhs_stream:
        x_t = session.solve(b_t, warm_start=True).x

Everything the wrappers compose is available individually in the
subpackages for fine-grained control.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .core.convergence import (
    AnyOf,
    HorizonRule,
    QuiescenceRule,
    ReferenceRule,
    ResidualRule,
    StoppingRule,
)
from .errors import ConfigurationError
from .graph.electric import ElectricGraph
from .graph.evs import SplitResult
from .linalg.sparse import CsrMatrix
from .net.client import DtmClient
from .plan import SolverPlan, SolverSession, VtmSession, get_plan
from .plan.plan import make_split, resolve_rhs
from .plan.session import SolveResult
from .sim.network import Topology

__all__ = [
    "SolveResult", "SolverPlan", "SolverSession", "VtmSession",
    "prepare_split", "get_plan", "solve_dtm", "solve_vtm_system",
    # remote serving (re-exported from repro.net)
    "DtmClient", "connect_dtm",
    # stopping rules (re-exported from repro.core.convergence)
    "StoppingRule", "ReferenceRule", "ResidualRule", "QuiescenceRule",
    "HorizonRule", "AnyOf",
]

#: keyword arguments that select or shape the plan build — the first
#: two are cache-key material; ``build_workers`` only parallelizes
#: the build and ``plan_dir`` only adds the persistent artifact tier
#: below the in-process cache (both leave every result bit unchanged,
#: so they are deliberately not part of the key)
_PLAN_KEYS = ("placement", "allow_indefinite", "build_workers",
              "plan_dir")
#: keyword arguments forwarded to SolveResult-producing run calls
#: (``stopping`` is an explicit parameter of the wrappers, not a
#: pass-through, so it cannot collide here)
_RUN_KEYS = ("sample_interval", "max_events", "reference")


def prepare_split(a, b, n_subdomains: int, *, seed: int = 0,
                  grid_shape: Optional[tuple[int, int]] = None,
                  parts_shape: Optional[tuple[int, int]] = None
                  ) -> SplitResult:
    """Electric graph → partition → EVS, with automatic partitioning.

    If *grid_shape* (and optionally *parts_shape*) is given, the regular
    block partitioner is used (paper §7); otherwise BFS region growing.
    """
    return make_split(a, b, n_subdomains, seed=seed,
                      grid_shape=grid_shape, parts_shape=parts_shape)


def _reject_plan_conflicts(plan, a, **named) -> None:
    """Refuse plan-selecting arguments alongside an explicit plan.

    The engines (DtmSimulator, VtmSolver) take nothing but a plan, so
    the conflict can only arise in these top-level wrappers, which
    accept both — silently solving with the plan's baked-in
    configuration instead of the requested one would return a
    valid-looking result for the wrong setup.
    Arguments explicitly passed at their default values are fine.  The
    system *a* itself is checked against the plan's matrix fingerprint:
    a mismatched matrix would otherwise be solved as the plan's system
    while reporting clean diagnostics against it.
    """
    conflicts = [k for k, (value, default) in named.items()
                 if value is not default and value != default]
    if conflicts:
        raise ConfigurationError(
            "these arguments select a plan and conflict with plan=: "
            f"{', '.join(sorted(conflicts))} (build the plan with them "
            "instead)")
    from .plan.plan import graph_fingerprint

    if isinstance(a, ElectricGraph):
        graph = a
    else:
        mat = a if isinstance(a, CsrMatrix) else \
            CsrMatrix.from_dense(np.asarray(a, dtype=np.float64))
        if mat.nrows != plan.n:
            raise ConfigurationError(
                f"the system passed as `a` has {mat.nrows} unknowns but "
                f"the plan was built for {plan.n}")
        graph = ElectricGraph.from_system(mat, np.zeros(plan.n))
    if graph_fingerprint(graph) != plan.fingerprint():
        raise ConfigurationError(
            "the system passed as `a` is not the plan's matrix; build a "
            "plan for it (or drop plan= to use the cache)")


def solve_dtm(a, b=None, *, n_subdomains: int = 4,
              topology: Optional[Topology] = None,
              impedance=1.0, t_max: float = 5000.0, tol: float = 1e-8,
              stopping=None,
              seed: int = 0,
              grid_shape: Optional[tuple[int, int]] = None,
              parts_shape: Optional[tuple[int, int]] = None,
              plan: Optional[SolverPlan] = None,
              use_cache: bool = True,
              backend: str = "sim",
              shards: int = 2,
              wall_budget: float = 60.0,
              transport: str = "shm",
              obs=None,
              trace=None,
              **sim_kwargs) -> SolveResult:
    """Solve an SPD system with asynchronous DTM on a simulated machine.

    Parameters mirror the pipeline: *a*/*b* (matrix+rhs or an
    :class:`ElectricGraph`, whose sources an explicit *b* overrides),
    the number of subdomains, the machine *topology* (default: a fully
    connected machine with delays in [10, 100]), the impedance spec,
    and the simulation horizon/tolerance.

    Planning (partition, EVS, factorizations, fleet packing) is cached
    in-process and keyed on every plan-affecting input, so repeated
    calls against the same matrix reuse it — ``use_cache=False`` forces
    a fresh plan, ``plan=`` supplies one explicitly.  The returned
    :class:`SolveResult` carries the reuse counters.

    ``stopping`` selects the termination criterion (see
    :mod:`repro.core.convergence`): the default is the paper's
    reference-based rule at *tol*; reference-free rules such as
    ``ResidualRule(tol=1e-8)`` or ``QuiescenceRule()`` terminate
    without ever computing a direct reference solution — the
    production mode for systems too large to direct-solve.  The result
    then reports ``stopped_by`` / ``stop_metric`` and its
    ``rms_error`` is ``nan`` (no oracle to compare against).

    ``backend`` selects the execution engine: ``"sim"`` (default) runs
    the discrete-event simulator on a modelled machine; ``"multiproc"``
    runs *shards* genuinely parallel worker processes over shared
    memory (see :class:`repro.runtime.MultiprocDtmRunner`) with
    reference-free stopping at every shard count (``stopping=None``
    becomes ``ResidualRule(tol)``).  With ``shards>1`` the run is
    bounded by ``wall_budget`` wall-clock seconds and ``t_max`` has no
    meaning; ``shards=1`` executes the simulator's fleet path
    (bitwise-identical to it), keeps ``t_max`` and may use an explicit
    reference-needing rule.

    ``build_workers=N`` (passed through ``**sim_kwargs``, ``-1`` for
    all CPUs) fans the plan's per-subdomain SuperLU factorizations out
    across a process pool without changing any result bit.  See
    PERFORMANCE.md → "Sparse planning".

    ``plan_dir=`` (also through ``**sim_kwargs``) points at a
    persistent plan-artifact directory: cache misses consult it
    before building (zero-copy mmap load) and fresh builds are saved
    back, so a new process against the same directory skips planning
    entirely.  Loaded plans solve bitwise-identically to built ones;
    see PERFORMANCE.md → "Persistent plan store".

    ``transport`` selects the multiproc backend's wave fabric (see
    :mod:`repro.net.transport`): ``"shm"`` (default) runs workers over
    shared memory on this machine; ``"mesh"`` runs the same latest-wins
    mailbox frames over sockets — direct worker-to-worker neighbor
    connections, the coordinator's hub relaying for any worker without
    one — and is the fabric that also spans machines (a
    :class:`repro.net.MeshTransport` instance bound to a LAN address
    accepts remote workers), with automatic failure recovery (a shard
    worker lost mid-solve is respawned and re-snapshotted from the
    coordinator's last published state — see PERFORMANCE.md →
    "Transports").

    ``obs=True`` (or ``REPRO_OBS=1``) collects solve/sweep/traffic
    metrics into a registry (see :mod:`repro.obs`); ``trace=True``
    attaches a per-solve :class:`~repro.obs.SolveTrace` timeline to
    the result as ``result.trace``.  Both default to off and cost
    nothing when off; see PERFORMANCE.md → "Telemetry".
    """
    if backend not in ("sim", "multiproc"):
        raise ConfigurationError(
            f"unknown backend {backend!r}; choose 'sim' or 'multiproc'")
    if transport != "shm" and backend != "multiproc":
        raise ConfigurationError(
            "transport= only applies to backend='multiproc'")
    b_vec = resolve_rhs(a, b)
    plan_kwargs = {k: sim_kwargs.pop(k) for k in _PLAN_KEYS
                   if k in sim_kwargs}
    run_kwargs = {k: sim_kwargs.pop(k) for k in _RUN_KEYS
                  if k in sim_kwargs}
    if plan is None:
        plan = get_plan(a, None if isinstance(a, ElectricGraph) else b_vec,
                        use_cache=use_cache, mode="dtm",
                        n_subdomains=n_subdomains, topology=topology,
                        impedance=impedance, seed=seed,
                        grid_shape=grid_shape, parts_shape=parts_shape,
                        **plan_kwargs)
    else:
        _reject_plan_conflicts(
            plan, a, n_subdomains=(n_subdomains, 4),
            topology=(topology, None), impedance=(impedance, 1.0),
            seed=(seed, 0), grid_shape=(grid_shape, None),
            parts_shape=(parts_shape, None),
            placement=(plan_kwargs.get("placement"), None),
            allow_indefinite=(plan_kwargs.get("allow_indefinite", False),
                              False),
            build_workers=(plan_kwargs.get("build_workers"), None),
            plan_dir=(plan_kwargs.get("plan_dir"), None))
    if backend == "multiproc":
        if sim_kwargs:
            raise ConfigurationError(
                "simulator options "
                f"{sorted(sim_kwargs)} do not apply to "
                "backend='multiproc'")
        if run_kwargs.get("reference") is not None:
            raise ConfigurationError(
                "backend='multiproc' is reference-free; reference= "
                "only applies to backend='sim'")
        from .runtime.multiproc import MultiprocDtmRunner

        with MultiprocDtmRunner(plan, shards=shards,
                                transport=transport, obs=obs) as runner:
            return runner.solve(
                b_vec, t_max=t_max, tol=tol, stopping=stopping,
                wall_budget=wall_budget, trace=trace,
                sample_interval=run_kwargs.get("sample_interval"),
                max_events=run_kwargs.get("max_events"))
    session = SolverSession(plan, obs=obs, **sim_kwargs)
    return session.solve(b_vec, t_max=t_max, tol=tol, stopping=stopping,
                         trace=trace, **run_kwargs)


def solve_vtm_system(a, b=None, *, n_subdomains: int = 4, impedance=1.0,
                     tol: float = 1e-8, max_iterations: int = 10_000,
                     stopping=None,
                     seed: int = 0,
                     build_workers: Optional[int] = None,
                     plan: Optional[SolverPlan] = None,
                     use_cache: bool = True) -> SolveResult:
    """Solve an SPD system with the synchronous VTM special case.

    Shares the plan/session machinery with :func:`solve_dtm` (vtm-mode
    plans: unit DTL delays, no machine topology), including the
    in-process plan cache, right-hand-side swapping and the
    ``stopping=`` rules (reference-free rules skip the direct
    reference solution entirely).
    """
    b_vec = resolve_rhs(a, b)
    if plan is None:
        plan = get_plan(a, None if isinstance(a, ElectricGraph) else b_vec,
                        use_cache=use_cache, mode="vtm",
                        n_subdomains=n_subdomains, impedance=impedance,
                        seed=seed, build_workers=build_workers)
    else:
        _reject_plan_conflicts(
            plan, a, n_subdomains=(n_subdomains, 4),
            impedance=(impedance, 1.0), seed=(seed, 0),
            build_workers=(build_workers, None))
    session = VtmSession(plan)
    return session.solve(b_vec, tol=tol, max_iterations=max_iterations,
                         stopping=stopping)


def connect_dtm(address, *, token: Optional[str] = None,
                timeout: Optional[float] = 300.0) -> DtmClient:
    """Connect to a remote DTM serving front end.

    *address* is ``(host, port)`` or ``"host:port"`` — the listen
    address of a :class:`repro.net.DtmTcpFrontend`.  Returns a
    :class:`~repro.net.client.DtmClient` (also usable as a context
    manager) with ``register`` / ``solve`` / ``solve_many`` /
    ``metrics`` / ``shutdown``.  See ``examples/remote_client.py``.
    """
    return DtmClient(address, token=token, timeout=timeout)
