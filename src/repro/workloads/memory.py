"""Device-memory footprint model for the workload suite.

GPU sharing is gated by memory before it is gated by compute: every
co-located job's weights, optimizer state, and activations must fit in
the device's memory (40 GB on the paper's A100s).  This module gives
each Table 2 workload a footprint estimate from its parameter count —

* inference: fp16 weights plus an activation/KV-cache allowance;
* training: fp32 weights, gradients, and Adam moments (4x parameters,
  16 bytes per parameter) plus activations —

and a checker the harness uses to validate that a co-location plan is
feasible on a given GPU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from ..errors import WorkloadError
from .llm_models import LLM_MODELS
from .models import WorkloadKind, WorkloadModel, get_model

__all__ = [
    "MemoryFootprint",
    "PARAMETER_COUNTS",
    "footprint_of",
    "total_footprint",
    "check_memory_fit",
    "A100_MEMORY_BYTES",
]

#: Device memory of the paper's GPUs (A100-SXM4-40GB).
A100_MEMORY_BYTES = 40 * 1024 ** 3

#: Table 2 parameter counts.
PARAMETER_COUNTS: dict[str, float] = {
    "resnet50_train": 25.6e6,
    "pointnet_train": 3.5e6,
    "bert_train": 110e6,
    "gpt2_train": 774e6,
    "pegasus_train": 568e6,
    "whisper_train": 1.5e9,
    "resnet50_infer": 25.6e6,
    "bert_infer": 110e6,
    "yolov6m_infer": 34.9e6,
    "llama2_infer": 7e9,
    "stable_diffusion_infer": 983e6,
    "gptneo_infer": 2.7e9,
}

#: bytes per parameter for mixed-precision training: fp16 weights and
#: gradients plus fp32 master weights and one packed Adam state (the
#: memory-lean AMP configuration the paper's workloads need to fit a
#: 40 GB card).
_TRAINING_BYTES_PER_PARAM = 12
#: bytes per parameter for inference weights (fp16).
_INFERENCE_BYTES_PER_PARAM = 2
#: activation / workspace / KV-cache allowance as a fraction of weights.
_TRAINING_ACTIVATION_FACTOR = 0.20
_INFERENCE_ACTIVATION_FACTOR = 0.20
#: fixed per-process overhead (CUDA context, framework, buffers).
_PROCESS_OVERHEAD_BYTES = 768 * 1024 ** 2


@dataclass(frozen=True)
class MemoryFootprint:
    """Estimated device-memory usage of one workload process."""

    model: str
    weights: int
    activations: int
    overhead: int = _PROCESS_OVERHEAD_BYTES

    @property
    def total(self) -> int:
        return self.weights + self.activations + self.overhead

    def gib(self) -> float:
        return self.total / 1024 ** 3


def footprint_of(model_name: str) -> MemoryFootprint:
    """Memory footprint estimate for one workload."""
    llm = LLM_MODELS.get(model_name)
    if llm is not None:
        # Serving: fp16 weights plus the explicitly sized KV pool (the
        # KV cache is the activation budget of an LLM server).
        return MemoryFootprint(
            model=model_name,
            weights=int(llm.params * _INFERENCE_BYTES_PER_PARAM),
            activations=llm.kv_capacity_bytes,
        )
    model: WorkloadModel = get_model(model_name)
    try:
        params = PARAMETER_COUNTS[model_name]
    except KeyError:
        raise WorkloadError(
            f"no parameter count recorded for {model_name!r}"
        ) from None
    if model.kind is WorkloadKind.TRAINING:
        weights = int(params * _TRAINING_BYTES_PER_PARAM)
        activations = int(weights * _TRAINING_ACTIVATION_FACTOR)
    else:
        weights = int(params * _INFERENCE_BYTES_PER_PARAM)
        activations = int(weights * _INFERENCE_ACTIVATION_FACTOR)
    return MemoryFootprint(model=model_name, weights=weights,
                           activations=activations)


def total_footprint(model_names: Iterable[str]) -> int:
    """Combined footprint of co-located workloads (bytes)."""
    return sum(footprint_of(name).total for name in model_names)


def check_memory_fit(model_names: Iterable[str],
                     capacity_bytes: int = A100_MEMORY_BYTES) -> None:
    """Raise :class:`WorkloadError` if the plan exceeds device memory."""
    names = list(model_names)
    needed = total_footprint(names)
    if needed > capacity_bytes:
        breakdown = ", ".join(
            f"{name}={footprint_of(name).gib():.1f}GiB" for name in names
        )
        raise WorkloadError(
            f"co-location plan needs {needed / 1024 ** 3:.1f} GiB but the "
            f"device has {capacity_bytes / 1024 ** 3:.0f} GiB ({breakdown})"
        )
