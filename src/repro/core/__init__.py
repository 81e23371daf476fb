"""DTM core: DTLs, impedances, local systems, the fleet kernel, VTM."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "convergence": (
            "AnyOf",
            "ConvergenceTracker",
            "HorizonRule",
            "QuiescenceRule",
            "ReferenceRule",
            "ResidualRule",
            "SolveContext",
            "StateProbe",
            "StopEvent",
            "StoppingRule",
            "as_stopping_rule",
            "max_error",
            "relative_residual",
            "rms_error",
        ),
        "dtl": (
            "DtlEndpoint",
            "Dtlp",
            "DtlpNetwork",
            "build_dtlp_network",
            "delay_equation_residual",
            "outgoing_wave",
            "port_current",
            "reflected_wave",
        ),
        "impedance": (
            "DiagonalMeanImpedance",
            "FixedImpedance",
            "GeometricMeanImpedance",
            "ImpedanceStrategy",
            "PerVertexImpedance",
            "as_impedance_strategy",
        ),
        "fleet": ("FleetKernel", "FleetKernelView", "build_fleet"),
        "local": (
            "LocalSystem",
            "build_all_local_systems",
            "build_local_system",
            "validate_local_system",
        ),
        "vtm": ("VtmResult", "VtmSolver"),
    },
)
