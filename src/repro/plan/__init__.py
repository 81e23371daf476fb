"""Plan/session architecture: amortized planning for repeated solves.

The paper's headline use case — circuit transient analysis — solves one
fixed sparse matrix against a *stream* of right-hand sides.  Everything
expensive about a DTM/VTM solve depends only on the matrix: the
electric graph, the partition, the EVS split, the DTLP network, the
per-subdomain factorizations and the packed fleet arrays.  This package
splits the pipeline accordingly:

* :class:`SolverPlan` — the immutable, shareable product of one-time
  planning (build with :func:`build_plan`, or fetch from the keyed
  in-process :class:`PlanCache` via :func:`get_plan`);
* :class:`SolverSession` / :class:`VtmSession` — mutable executors over
  a plan: ``solve(b)`` swaps the right-hand side with one
  back-substitution per subdomain, ``solve_many(B)`` batches the RHS
  preparation for a column block, and warm starts reuse the previous
  solve's wave state.

``repro.api.solve_dtm`` / ``solve_vtm_system`` are thin wrappers that
build-or-fetch a plan and run a one-shot session.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "artifact": (
            "load_plan",
            "plan_from_bytes",
            "plan_nbytes",
            "plan_to_bytes",
            "save_plan",
        ),
        "cache": ("PlanCache", "default_plan_cache"),
        "diskstore": ("DiskPlanStore",),
        "plan": (
            "SolverPlan",
            "build_plan",
            "compute_plan_hash",
            "get_plan",
            "plan_key",
        ),
        "session": ("SolverSession", "VtmSession"),
    },
)
