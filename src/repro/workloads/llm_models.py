"""The LLM serving model catalogue: what each served model costs.

An :class:`LLMServingModel` describes one autoregressively served model
— prompt and output length distributions, per-token prefill/decode
costs, KV bytes per token, batching limits and the KV pool carved out
of device memory — and builds its prefill and decode kernels.  The
serving driver that runs these models is
:class:`~repro.workloads.llm.LLMServingJob`; this module holds only the
descriptions, so placement and memory-footprint code can read them
without loading the driver.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from ..errors import WorkloadError
from ..gpu.kernel import KernelDescriptor
from ..gpu.specs import GPUSpec

__all__ = [
    "TokenLengths",
    "LLMServingModel",
    "LLM_MODELS",
    "get_llm_model",
]

@dataclass(frozen=True)
class TokenLengths:
    """Bounded lognormal token-count distribution (prompt or output)."""

    mean: float
    sigma: float
    minimum: int
    maximum: int

    def __post_init__(self) -> None:
        if self.mean <= 0 or self.sigma < 0:
            raise WorkloadError("mean must be > 0 and sigma >= 0")
        if not 1 <= self.minimum <= self.maximum:
            raise WorkloadError("need 1 <= minimum <= maximum")

    def sample(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """``count`` integer lengths, clipped into [minimum, maximum]."""
        mu = np.log(self.mean) - 0.5 * self.sigma ** 2
        raw = rng.lognormal(mu, self.sigma, size=count)
        return np.clip(np.rint(raw), self.minimum,
                       self.maximum).astype(int)


def _pow2_bucket(value: int, cap: int) -> int:
    """Smallest power of two >= value, clipped to ``cap``."""
    bucket = 1
    while bucket < value:
        bucket *= 2
    return min(bucket, cap)


@dataclass(frozen=True)
class LLMServingModel:
    """Statistical description of one autoregressively served model.

    Per-token costs are *condensed* the same way the Table 2 traces
    are: shorter than the real model's, same phase structure and
    interference physics, so colocation results normalize cleanly.
    """

    name: str
    #: parameter count (drives the weight-memory footprint)
    params: float
    prompt_tokens: TokenLengths
    output_tokens: TokenLengths
    #: idle-device prefill cost per prompt token (seconds)
    prefill_token_time: float
    #: idle-device base cost of one decode step (seconds)
    decode_step_time: float
    #: incremental decode-step cost per sequence in the batch (seconds)
    decode_seq_time: float
    #: host-side work between steps (sampling, detokenize, scheduling)
    host_gap: float
    #: KV-cache bytes per token per sequence (2 x layers x hidden x 2B)
    kv_bytes_per_token: int
    #: KV pool carved out for this service (bytes)
    kv_capacity_bytes: int
    #: max sequences decoded per step
    max_batch: int = 16
    #: prompt tokens processed per prefill kernel
    prefill_chunk: int = 128
    #: tokens per KV block (paged-attention granularity)
    kv_block_tokens: int = 16

    def __post_init__(self) -> None:
        if min(self.prefill_token_time, self.decode_step_time,
               self.decode_seq_time) <= 0 or self.host_gap < 0:
            raise WorkloadError(f"{self.name}: phase times must be > 0")
        if self.kv_bytes_per_token < 1 or self.kv_capacity_bytes < 1:
            raise WorkloadError(f"{self.name}: KV sizes must be >= 1")
        if min(self.max_batch, self.prefill_chunk,
               self.kv_block_tokens) < 1:
            raise WorkloadError(f"{self.name}: batching knobs must be >= 1")
        if self.kv_capacity_bytes < self.kv_bytes_per_token * (
                self.prompt_tokens.maximum + self.output_tokens.maximum):
            raise WorkloadError(
                f"{self.name}: KV pool cannot hold even one max-length "
                f"request"
            )

    # ------------------------------------------------------------------
    def mean_request_time(self) -> float:
        """Idle-device, batch-of-one service time of an average request.

        The quantity ``load`` is defined against (as for the trace
        models): an arrival rate of ``load / mean_request_time`` keeps
        a serial server busy ``load`` of the time.  Continuous
        batching serves faster than serially, so the same load leaves
        more idle headroom than it would for a trace-model service.
        """
        prefill = self.prefill_token_time * self.prompt_tokens.mean
        steps = self.output_tokens.mean
        step = self.decode_step_time + self.decode_seq_time + self.host_gap
        return prefill + steps * step

    def kv_capacity_tokens(self) -> int:
        return self.kv_capacity_bytes // self.kv_bytes_per_token

    # ------------------------------------------------------------------
    # Deterministic kernel construction.  A name is hashed into stable
    # pseudo-random block geometry, so every occurrence of a kernel
    # name carries identical timing — the property both Tally's
    # profiler cache and the differential oracles rely on.
    # ------------------------------------------------------------------
    def _kernel(self, phase: str, bucket: int, duration: float,
                spec: GPUSpec) -> KernelDescriptor:
        name = f"{self.name}_{phase}_{bucket}"
        h = zlib.crc32(name.encode())
        threads = 512 if h & 1 else 1024
        capacity = spec.concurrent_blocks(threads)
        # Per-block time in the same 4-120 us band as the trace models.
        target = 8e-6 + (h % 997) / 997.0 * 40e-6
        target = min(target, duration)
        waves = max(1, min(256, round(duration / target)))
        # Decode steps at small batch underfill the device (the classic
        # serving-underutilization gap best-effort work soaks up);
        # prefill and big batches mostly fill it.
        fill = (0.25 + 0.5 * min(1.0, bucket / self.max_batch)
                if phase == "decode" else 0.85)
        blocks = (waves - 1) * capacity + max(1, int(capacity * fill))
        return KernelDescriptor(
            name=name,
            num_blocks=blocks,
            threads_per_block=threads,
            block_duration=duration / waves,
            ptb_overhead_fraction=0.02 + (h % 41) / 1000.0,
        )

    def prefill_kernel(self, chunk_tokens: int,
                       spec: GPUSpec) -> KernelDescriptor:
        """One prefill chunk of ``chunk_tokens`` prompt tokens."""
        bucket = _pow2_bucket(chunk_tokens, self.prefill_chunk)
        return self._kernel("prefill", bucket,
                            self.prefill_token_time * bucket, spec)

    def decode_kernel(self, batch: int, spec: GPUSpec) -> KernelDescriptor:
        """One decode step over ``batch`` sequences (bucket-quantized)."""
        bucket = _pow2_bucket(batch, self.max_batch)
        duration = self.decode_step_time + self.decode_seq_time * bucket
        return self._kernel("decode", bucket, duration, spec)


#: Built-in serving models.  Per-token costs are condensed ~10x from
#: A100 fp16 reality (llama-2-7b decodes ~25 ms/token); KV bytes per
#: token are the real architecture numbers (2 x layers x hidden x
#: 2 bytes x 2 tensors), and each pool is what remains of 40 GB after
#: fp16 weights and runtime overhead when co-located with a trainer.
LLM_MODELS: dict[str, LLMServingModel] = {
    "llama7b_serve": LLMServingModel(
        name="llama7b_serve", params=7e9,
        prompt_tokens=TokenLengths(mean=256, sigma=0.8, minimum=16,
                                   maximum=1024),
        output_tokens=TokenLengths(mean=64, sigma=0.7, minimum=4,
                                   maximum=256),
        prefill_token_time=8e-6,
        decode_step_time=1.6e-3,
        decode_seq_time=45e-6,
        host_gap=120e-6,
        kv_bytes_per_token=512 * 1024,  # 32 layers x 4096 x 2 x 2B
        kv_capacity_bytes=6 * 1024 ** 3,
        max_batch=16,
    ),
    "llama13b_serve": LLMServingModel(
        name="llama13b_serve", params=13e9,
        prompt_tokens=TokenLengths(mean=512, sigma=0.7, minimum=32,
                                   maximum=2048),
        output_tokens=TokenLengths(mean=128, sigma=0.7, minimum=8,
                                   maximum=512),
        prefill_token_time=14e-6,
        decode_step_time=2.6e-3,
        decode_seq_time=70e-6,
        host_gap=120e-6,
        kv_bytes_per_token=800 * 1024,  # 40 layers x 5120 x 2 x 2B
        kv_capacity_bytes=5 * 1024 ** 3,
        max_batch=8,
    ),
}


def get_llm_model(name: str) -> LLMServingModel:
    """Look up a serving model by name."""
    try:
        return LLM_MODELS[name]
    except KeyError:
        raise WorkloadError(
            f"unknown LLM serving model {name!r}; "
            f"choose from {sorted(LLM_MODELS)}"
        ) from None
