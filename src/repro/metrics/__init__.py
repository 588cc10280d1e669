"""Performance metrics of Section VII-C: replication, Gini, max load."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.metrics.gini": ("gini_coefficient",),
        "repro.metrics.load": ("max_processing_load", "processing_loads"),
        "repro.metrics.replication": ("average_replication",),
        "repro.metrics.report": (
            "WindowMetrics",
            "aggregate_metrics",
            "format_table",
        ),
    },
)

__all__ = [
    "WindowMetrics",
    "aggregate_metrics",
    "average_replication",
    "format_table",
    "gini_coefficient",
    "max_processing_load",
    "processing_loads",
]
