"""Timing-level kernel descriptors and launch configurations.

The scheduling experiments operate on *kernel traces*: streams of
:class:`KernelDescriptor` objects carrying the quantities the timing
simulator needs (block count, threads per block, per-block duration).
This is deliberately distinct from the functional mini-PTX layer — the
paper's scheduling decisions depend only on these quantities, never on
what a kernel computes.

Analytic helpers on the descriptor implement the paper's cost model:
execution time in full-occupancy waves, slice execution time, and the
persistent-thread-block (PTB) iteration time including transformation
overhead.  Tally's transparent profiler measures the same quantities
from the simulator at runtime; these closed forms exist for tests and
for workload calibration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

from ..errors import GPUSimError
from .specs import GPUSpec

__all__ = ["KernelDescriptor", "LaunchKind", "LaunchConfig"]

#: Fixed cost added to every PTB worker iteration (flag check, fetch,
#: broadcast barrier) — seconds.
PTB_ITERATION_OVERHEAD = 2e-6


@dataclass(frozen=True)
class KernelDescriptor:
    """Timing description of one GPU kernel launch.

    ``block_duration`` is the time one thread block occupies one
    resident-block slot; a kernel's execution time on an idle device is
    ``waves * block_duration`` with ``waves = ceil(num_blocks /
    concurrent-block capacity)``.
    """

    name: str
    num_blocks: int
    threads_per_block: int
    block_duration: float  # seconds
    shared_mem_per_block: int = 0
    #: relative slowdown of each block under the PTB transformation
    #: (extra control flow + unified synchronization), typically 2-6 %.
    ptb_overhead_fraction: float = 0.03

    def __post_init__(self) -> None:
        if self.num_blocks < 1:
            raise GPUSimError(f"{self.name}: num_blocks must be >= 1")
        if self.threads_per_block < 1:
            raise GPUSimError(f"{self.name}: threads_per_block must be >= 1")
        if self.block_duration <= 0:
            raise GPUSimError(f"{self.name}: block_duration must be > 0")
        if self.ptb_overhead_fraction < 0:
            raise GPUSimError(f"{self.name}: ptb_overhead_fraction < 0")
        # Hashed once: descriptors key the profiler's and the device's
        # lookups, and the generated hash would rehash every field on
        # each one.  Not a field, so eq, repr and replace() ignore it.
        object.__setattr__(self, "_hash", hash(self._fields()))

    def _fields(self) -> tuple:
        return (self.name, self.num_blocks, self.threads_per_block,
                self.block_duration, self.shared_mem_per_block,
                self.ptb_overhead_fraction)

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # rebuilt rather than restored: a string hashes differently in
        # another process
        return type(self), self._fields()

    # ------------------------------------------------------------------
    # Analytic timing model
    # ------------------------------------------------------------------
    def capacity(self, spec: GPUSpec) -> int:
        """Device-wide resident-block capacity for this kernel."""
        return spec.concurrent_blocks(self.threads_per_block,
                                      self.shared_mem_per_block)

    def waves(self, spec: GPUSpec) -> int:
        """Full-occupancy waves needed on an idle device."""
        return -(-self.num_blocks // self.capacity(spec))

    def duration(self, spec: GPUSpec) -> float:
        """Execution time on an idle device (excluding launch overhead)."""
        return self.waves(spec) * self.block_duration

    def slice_duration(self, spec: GPUSpec, blocks_per_slice: int) -> float:
        """Execution time of one slice of ``blocks_per_slice`` blocks."""
        if blocks_per_slice < 1:
            raise GPUSimError("blocks_per_slice must be >= 1")
        waves = -(-min(blocks_per_slice, self.num_blocks)
                  // self.capacity(spec))
        return waves * self.block_duration

    def num_slices(self, blocks_per_slice: int) -> int:
        """Number of slices a sliced launch needs."""
        if blocks_per_slice < 1:
            raise GPUSimError("blocks_per_slice must be >= 1")
        return -(-self.num_blocks // blocks_per_slice)

    def sliced_duration(self, spec: GPUSpec, blocks_per_slice: int) -> float:
        """Total time of a fully sliced execution, launch overheads included."""
        n = self.num_slices(blocks_per_slice)
        return (n * spec.kernel_launch_overhead
                + n * self.slice_duration(spec, blocks_per_slice))

    def ptb_iteration_duration(self) -> float:
        """Time for one PTB worker to process one logical block."""
        return (self.block_duration * (1.0 + self.ptb_overhead_fraction)
                + PTB_ITERATION_OVERHEAD)

    def ptb_duration(self, workers: int) -> float:
        """Total PTB execution time with ``workers`` worker blocks."""
        if workers < 1:
            raise GPUSimError("workers must be >= 1")
        iterations = -(-self.num_blocks // workers)
        return iterations * self.ptb_iteration_duration()

    def ptb_turnaround_estimate(self, spec: GPUSpec, workers: int) -> float:
        """The paper's turnaround heuristic for a PTB launch.

        ``kernel_latency / (total_blocks / worker_blocks)`` — the expected
        wait for every worker to finish its current block.
        """
        if workers < 1:
            raise GPUSimError("workers must be >= 1")
        blocks_per_worker = max(1.0, self.num_blocks / workers)
        return self.ptb_duration(workers) / blocks_per_worker

    # ------------------------------------------------------------------
    @staticmethod
    def from_duration(name: str, duration: float, num_blocks: int,
                      threads_per_block: int, spec: GPUSpec,
                      **kwargs: object) -> "KernelDescriptor":
        """Build a descriptor whose idle-device execution time is ``duration``."""
        if duration <= 0:
            raise GPUSimError(f"{name}: duration must be > 0")
        probe = KernelDescriptor(name, num_blocks, threads_per_block, 1.0)
        waves = probe.waves(spec)
        return KernelDescriptor(
            name, num_blocks, threads_per_block, duration / waves,
            **kwargs,  # type: ignore[arg-type]
        )

    def scaled(self, factor: float) -> "KernelDescriptor":
        """A copy with the per-block duration scaled by ``factor``."""
        if factor <= 0:
            raise GPUSimError("scale factor must be > 0")
        return replace(self, block_duration=self.block_duration * factor)


class LaunchKind(enum.Enum):
    """How a kernel is materialized on the device."""

    ORIGINAL = "original"
    PTB = "ptb"


@dataclass(frozen=True)
class LaunchConfig:
    """Device-level launch configuration.

    ``ORIGINAL`` launches dispatch all grid blocks; ``PTB`` launches
    place ``workers`` persistent worker blocks that iterate over the
    grid and honour a preemption flag.  Slicing is realized above the
    device as a chain of ORIGINAL launches over block sub-ranges.
    """

    kind: LaunchKind = LaunchKind.ORIGINAL
    workers: int = 0

    def __post_init__(self) -> None:
        if self.kind is LaunchKind.PTB and self.workers < 1:
            raise GPUSimError("PTB launches need workers >= 1")
        if self.kind is LaunchKind.ORIGINAL and self.workers != 0:
            raise GPUSimError("ORIGINAL launches take no workers")


LaunchConfig.DEFAULT = LaunchConfig()  # type: ignore[attr-defined]
