"""repro — a full reproduction of the Directed Transmission Method (DTM).

DTM (Wei & Yang, SPAA 2008) is a fully asynchronous, continuous-time
distributed algorithm for solving sparse symmetric-positive-definite
linear systems.  This package implements the algorithm and every
substrate it rests on:

* :mod:`repro.linalg` — sparse/dense linear-algebra kernels;
* :mod:`repro.graph` — electric graphs and Electric Vertex Splitting;
* :mod:`repro.core` — DTLs, impedances, local systems, the DTM/VTM
  solvers and sync/async hybrids;
* :mod:`repro.sim` — a discrete-event simulator of heterogeneous
  parallel machines (the paper's MATLAB/SIMULINK toolbox substitute);
* :mod:`repro.runtime` — the real multiprocess execution backend
  (shared-memory or socket-mesh shards) and the plan-store server;
* :mod:`repro.solvers` — domain-decomposition baselines;
* :mod:`repro.workloads` — problem generators incl. the paper's examples;
* :mod:`repro.analysis` — convergence-theory verification and reporting;
* :mod:`repro.experiments` — one module per paper figure/table.

Quickstart::

    from repro import solve_dtm
    from repro.workloads import paper_system_3_2

    system = paper_system_3_2()
    result = solve_dtm(system.matrix, system.rhs, n_subdomains=2, seed=0)
    print(result.x, result.rms_error)
"""

from ._lazy import lazy_exports
from .errors import (
    ConfigurationError,
    ConvergenceError,
    NotSnndError,
    NotSpdError,
    PartitionError,
    ReproError,
    SimulationError,
    SingularMatrixError,
    ValidationError,
)

__version__ = "1.0.0"

__all__ = [
    "ReproError", "ValidationError", "NotSpdError", "NotSnndError",
    "SingularMatrixError", "PartitionError", "ConvergenceError",
    "SimulationError", "ConfigurationError",
    "__version__",
]

#: the high-level API resolves on first use; it is not part of
#: ``__all__`` (``from repro import *`` stays as cheap as ``import repro``)
_, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "api": (
            "SolveResult",
            "SolverPlan",
            "SolverSession",
            "VtmSession",
            "prepare_split",
            "get_plan",
            "solve_dtm",
            "solve_vtm_system",
            "DtmClient",
            "connect_dtm",
            "StoppingRule",
            "ReferenceRule",
            "ResidualRule",
            "QuiescenceRule",
            "HorizonRule",
            "AnyOf",
        ),
    },
)
