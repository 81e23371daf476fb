"""Problem generators: the paper's examples, grids, circuits, random SPD."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "circuits": ("clustered_circuit", "resistor_grid", "resistor_ladder"),
        "paper": (
            "DELAY_A_TO_B",
            "DELAY_B_TO_A",
            "EXPECTED_SUB0_MATRIX",
            "EXPECTED_SUB0_RHS",
            "EXPECTED_SUB1_MATRIX",
            "EXPECTED_SUB1_RHS",
            "IMPEDANCE_V2",
            "IMPEDANCE_V3",
            "MATRIX_3_2",
            "RHS_3_2",
            "PaperSystem",
            "example_5_1_delays",
            "example_5_1_impedances",
            "paper_partition",
            "paper_split",
            "paper_split_strategy",
            "paper_system_3_2",
        ),
        "poisson": (
            "grid2d_anisotropic",
            "grid2d_poisson",
            "grid2d_random",
            "grid3d_poisson",
            "paper_grid_side",
        ),
        "random_spd": (
            "random_connected_spd_graph",
            "random_dense_spd",
            "random_spd_graph",
        ),
    },
)
