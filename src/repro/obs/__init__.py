"""Unified telemetry: metric registry, solve traces, Prometheus export.

See :mod:`repro.obs.registry` for the enable/disable contract (the
``obs=`` kwargs and ``REPRO_OBS=1``), :mod:`repro.obs.trace` for the
per-solve timeline vocabulary and :mod:`repro.obs.export` for the
text exposition format.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "export": ("render_prometheus",),
        "registry": (
            "DEFAULT_BUCKETS",
            "NULL_REGISTRY",
            "Counter",
            "Gauge",
            "Histogram",
            "MetricRegistry",
            "MetricsSnapshot",
            "NullRegistry",
            "component_registry",
            "default_registry",
            "merge_snapshots",
            "obs_env_enabled",
            "resolve_obs",
            "set_default_registry",
        ),
        "trace": ("SolveTrace", "resolve_trace"),
    },
)
