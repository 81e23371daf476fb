"""Electric graphs, partitions and Electric Vertex Splitting (paper §3-§4)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "electric": ("ElectricGraph",),
        "evs": (
            "DominancePreservingSplit",
            "EqualSplit",
            "ExplicitSplit",
            "SplitResult",
            "SplitStrategy",
            "split_graph",
            "twin_pairs",
        ),
        "partition": ("Partition", "Subdomain", "TwinLink"),
        "partitioners": (
            "edge_cut_weight",
            "greedy_grow_partition",
            "grid_block_partition",
            "multilevel_partition",
            "vertex_cover_separator",
        ),
    },
)
