"""Discrete-event simulator of heterogeneous parallel machines."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "engine": ("Engine",),
        "events": ("Event", "EventQueue"),
        "executor": ("DtmRunResult", "DtmSimulator"),
        "network": (
            "ConstantDelay",
            "DelayModel",
            "JitteredDelay",
            "Topology",
            "complete_topology",
            "custom_topology",
            "mesh_topology",
            "paper_fig11_topology",
            "paper_fig13_topology",
            "uniform_topology",
        ),
        "processor": ("ComputeModel", "Processor"),
        "trace": (
            "ErrorObserver",
            "MessageLog",
            "MessageRecord",
            "PortProbe",
            "SolveLog",
        ),
    },
)
