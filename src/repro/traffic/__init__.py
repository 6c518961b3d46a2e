"""Synthetic inference traffic (MAF2 substitute)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".maf": ("TrafficTrace", "bursty_trace", "maf_trace", "poisson_trace",
             "profile_trace", "rate_for_load"),
})
