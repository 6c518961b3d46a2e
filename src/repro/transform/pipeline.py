"""Transformation pipeline with content-addressed caching.

Tally's server transforms each distinct kernel at most once and reuses
the result for every subsequent launch (paper §4).  Distinctness is
decided by *content*: :class:`TransformPipeline` keys its cache on
``(ir_hash, transform, params)`` — :func:`repro.ptx.ir_hash` is a
canonical structural digest of the kernel — so two kernel objects with
equal IR share one transformed artifact, and a garbage-collected
kernel whose ``id()`` CPython later hands to a *different* kernel can
never alias a stale cached variant (the bug the previous
identity-keyed cache had).

The backing store is a :class:`~repro.transform.memo.TransformMemo`.
By default each pipeline gets a private one; passing
``memo=transform_memo()`` (what :class:`~repro.core.server.TallyServer`
does) shares the process-wide store, so repeated workloads, chaos-matrix
cells, and sweep workers reuse compiled IR across pipeline instances —
the memoized transform JIT.

A per-object identity fast path avoids rehashing a kernel on every
launch; it is kept honest with weakref reapers, so entries die with
their kernel object and a recycled id can never serve a stale hash.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Any

from ..ptx.hash import ir_hash
from ..ptx.ir import KernelIR
from .. import trace
from ..trace import NULL_TRACER
from .dce import eliminate_dead_code
from .memo import TransformMemo
from .peephole import peephole_optimize
from .ptb import PreemptibleKernel, make_preemptible
from .slicing import SlicedKernel, make_sliced
from .unified_sync import UnifiedSyncKernel, make_unified_sync

__all__ = ["TransformPipeline", "TransformStats"]


@dataclass
class TransformStats:
    """Counts of transformation work performed (and avoided)."""

    sliced: int = 0
    preemptible: int = 0
    unified_sync: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    instructions_elided: int = 0

    @property
    def lookups(self) -> int:
        """Total cache probes (hits + misses)."""
        return self.cache_hits + self.cache_misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from cache (0.0 when idle)."""
        total = self.lookups
        return self.cache_hits / total if total else 0.0


class TransformPipeline:
    """Caches transformed variants of kernels by content hash.

    Cache keys are ``(ir_hash, transform, params)`` plus the pipeline's
    ``optimize`` flag (the cleanup passes change the artifact), so any
    two kernels with identical IR — same object or not, same process or
    not — share one transformed variant.  With ``optimize=True`` (the
    default) every transformed kernel is run through the peephole and
    dead-code cleanup passes before being cached.

    ``memo`` selects the backing store: ``None`` (default) builds a
    private :class:`~repro.transform.memo.TransformMemo`; pass
    :func:`repro.transform.memo.transform_memo` 's instance to share
    the process-wide one.  ``tracer`` (optional) receives one
    :class:`~repro.trace.events.TransformCache` event per lookup and
    per eviction.
    """

    def __init__(self, *, optimize: bool = True,
                 memo: TransformMemo | None = None,
                 tracer: Any = NULL_TRACER) -> None:
        self._optimize = optimize
        self.memo = memo if memo is not None else TransformMemo()
        self._tracer = tracer
        #: id(kernel) -> ir_hash fast path; reaped when the object dies
        self._hash_by_id: dict[int, str] = {}
        self._reapers: dict[int, weakref.ref] = {}
        self.stats = TransformStats()

    # ------------------------------------------------------------------
    def _hash_of(self, kernel: KernelIR) -> str:
        """Content hash of ``kernel`` with an identity fast path.

        The fast-path entry is removed by a weakref callback when the
        kernel object is collected — *before* CPython can hand its id
        to a new object — so a recycled id always re-hashes.
        """
        key = id(kernel)
        cached = self._hash_by_id.get(key)
        if cached is not None:
            return cached
        digest = ir_hash(kernel)
        self._hash_by_id[key] = digest

        def _reap(_ref: weakref.ref, *, _key: int = key,
                  _ids: dict = self._hash_by_id,
                  _reapers: dict = self._reapers) -> None:
            _ids.pop(_key, None)
            _reapers.pop(_key, None)

        self._reapers[key] = weakref.ref(kernel, _reap)
        return digest

    def _cleanup(self, kernel: KernelIR) -> KernelIR:
        if not self._optimize:
            return kernel
        optimized, peep = peephole_optimize(kernel)
        optimized, dce = eliminate_dead_code(optimized)
        self.stats.instructions_elided += (peep.total_removed
                                           + dce.instructions_removed)
        return optimized

    def _trace(self, action: str, transform: str, kernel_name: str,
               digest: str) -> None:
        self._tracer.emit(trace.TransformCache(
            ts=0.0, client_id="", kernel=kernel_name, action=action,
            transform=transform, ir_hash=digest,
        ))

    def _lookup(self, key: tuple, transform: str, kernel: KernelIR,
                digest: str) -> Any | None:
        cached = self.memo.get(key)
        if cached is not None:
            self.stats.cache_hits += 1
            if self._tracer.enabled:
                self._trace("hit", transform, kernel.name, digest)
        else:
            self.stats.cache_misses += 1
            if self._tracer.enabled:
                self._trace("miss", transform, kernel.name, digest)
        return cached

    def _store(self, key: tuple, transform: str, kernel: KernelIR,
               digest: str, artifact: Any) -> None:
        before = self.memo.evictions
        self.memo.put(key, artifact)
        if self._tracer.enabled and self.memo.evictions > before:
            self._trace("evict", transform, kernel.name, digest)

    # ------------------------------------------------------------------
    def sliced(self, kernel: KernelIR) -> SlicedKernel:
        """Sliced variant of ``kernel`` (cached by content)."""
        digest = self._hash_of(kernel)
        key = (digest, "sliced", self._optimize)
        cached = self._lookup(key, "sliced", kernel, digest)
        if cached is not None:
            return cached
        result = make_sliced(kernel)
        result.kernel = self._cleanup(result.kernel)
        self._store(key, "sliced", kernel, digest, result)
        self.stats.sliced += 1
        return result

    def preemptible(self, kernel: KernelIR, *,
                    unified_sync: bool = True) -> PreemptibleKernel:
        """Preemptible (PTB) variant of ``kernel`` (cached by content)."""
        digest = self._hash_of(kernel)
        key = (digest, "ptb", unified_sync, self._optimize)
        cached = self._lookup(key, "ptb", kernel, digest)
        if cached is not None:
            return cached
        result = make_preemptible(kernel, unified_sync=unified_sync)
        result.kernel = self._cleanup(result.kernel)
        self._store(key, "ptb", kernel, digest, result)
        self.stats.preemptible += 1
        return result

    def unified_sync(self, kernel: KernelIR) -> UnifiedSyncKernel:
        """Unified-synchronization variant of ``kernel`` (cached by content)."""
        digest = self._hash_of(kernel)
        key = (digest, "unified_sync", self._optimize)
        cached = self._lookup(key, "unified_sync", kernel, digest)
        if cached is not None:
            return cached
        result = make_unified_sync(kernel)
        result.kernel = self._cleanup(result.kernel)
        self._store(key, "unified_sync", kernel, digest, result)
        self.stats.unified_sync += 1
        return result
