"""One module per paper figure/table plus the ablation studies."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "ablations": (
            "run_ablation_impedance",
            "run_ablation_split",
            "run_ablation_twin",
            "run_baselines",
            "run_hybrid",
            "run_vtm_vs_dtm",
        ),
        "common": (
            "DEFAULT_SEED",
            "RESULTS_DIR",
            "default_impedance",
            "paper_split_for",
            "paper_workload",
            "run_paper_dtm",
        ),
        "fig8": ("run_fig8",),
        "fig9": ("run_fig9",),
        "fig11": ("run_fig11",),
        "fig12": ("run_fig12",),
        "fig13": ("run_fig13",),
        "fig14": ("run_fig14",),
        "table1": ("run_table1",),
    },
)
