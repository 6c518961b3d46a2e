"""Evaluation metrics: tail latency, serving SLOs, and throughput."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".latency": ("LatencySummary", "percentile"),
    ".overload": ("BreakerEvent", "OverloadReport"),
    ".recovery": ("RecoveryReport", "ServiceRecovery",
                  "attainment_through_window"),
    ".serving": ("ServingSLO", "ServingSummary"),
    ".throughput": ("ThroughputSample", "normalized_throughput",
                    "system_throughput"),
})
