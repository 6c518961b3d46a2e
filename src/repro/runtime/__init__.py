"""CUDA-like runtime substrate: the API surface Tally intercepts."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".api": ("CudaRuntime",),
    ".context": ("Backend", "LocalBackend"),
    ".memory": ("MemoryManager", "MemorySnapshot"),
    ".registration": ("FatBinary", "ModuleRegistry"),
})
