"""Domain-decomposition baselines: Schwarz methods and Schur complement."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "base": ("BaselineResult", "BlockStructure", "build_block_structure"),
        "block_gs": ("solve_block_gauss_seidel",),
        "block_jacobi": (
            "AsyncBlockJacobiSimulator",
            "BlockJacobiKernel",
            "solve_block_jacobi",
        ),
        "schur": ("SchurResult", "solve_schur"),
    },
)
