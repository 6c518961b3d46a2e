"""Timing substrate: discrete-event GPU simulator.

:class:`EventLoop` drives simulated time; :class:`GPUDevice` models an
SM-slot GPU over a :class:`GPUSpec`; kernels are described by
:class:`KernelDescriptor` and launched with a :class:`LaunchConfig`.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".device": ("DeviceLaunch", "GPUDevice", "LaunchStatus"),
    ".engine": ("Event", "EventLoop"),
    ".kernel": ("KernelDescriptor", "LaunchConfig", "LaunchKind"),
    ".specs": ("A100_SXM4_40GB", "GPUSpec", "RTX_3090", "V100_SXM2_16GB"),
})
