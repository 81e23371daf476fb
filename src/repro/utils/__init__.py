"""Shared utilities: RNG coercion, validation helpers, time series."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "rng": ("as_generator", "derive_seed", "spawn"),
        "timeseries": ("TimeSeries", "merge_series"),
        "validation": (
            "as_float_vector",
            "as_square_matrix",
            "check_symmetric",
            "require",
            "require_index_array",
            "require_positive",
        ),
    },
)
