"""Virtualization layer: interception, channels, and wire protocol (§4.3)."""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".channel": ("Channel", "ChannelConfig", "ChannelStats",
                 "SHARED_MEMORY", "UNIX_SOCKET"),
    ".interposer": ("InterposedBackend",),
    ".resilience": ("CircuitBreaker", "ResilienceConfig", "RetryBudget",
                    "decorrelated_jitter"),
    ".protocol": ("Envelope", "FreeRequest", "LaunchKernelRequest",
                  "MallocRequest", "MemcpyD2HRequest", "MemcpyH2DRequest",
                  "RegisterBinaryRequest", "Request", "Response",
                  "SynchronizeRequest", "checksum_of", "estimate_size"),
})
