"""Baseline GPU-sharing systems the paper compares Tally against."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".base": ("ClientInfo", "PassthroughPolicy", "Priority", "SharingPolicy"),
    ".ideal": ("Ideal",),
    ".mps": ("MPS", "MPSPriority"),
    ".reef": ("REEF",),
    ".tgs": ("TGS",),
    ".time_slicing": ("TimeSlicing",),
})
