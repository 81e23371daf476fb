"""Convergence-theory verification and reporting utilities."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "laplace": (
            "ConvergenceCertificate",
            "TwoDomainLaplace",
            "port_operator",
            "port_source",
            "two_domain_model",
            "verify_theorem_6_1",
        ),
        "reporting": (
            "ExperimentRecord",
            "ascii_curve",
            "format_series",
            "format_table",
        ),
        "spectral": (
            "SpectralReport",
            "impedance_sweep_spectral",
            "observed_contraction_rate",
            "wave_spectral_report",
        ),
    },
)
