"""Linear-algebra substrate: sparse storage, factorizations, solvers."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "iterative": (
            "IterativeResult",
            "conjugate_gradient",
            "direct_reference_solution",
        ),
        "sparse": ("CsrMatrix", "forbid_densify", "is_symmetric"),
        "sparse_cholesky": ("SparseSpdFactor", "factor_sparse_spd"),
        "spd": (
            "DefinitenessReport",
            "definiteness_report",
            "is_snnd",
            "is_spd",
            "min_eigenvalue",
        ),
    },
)
