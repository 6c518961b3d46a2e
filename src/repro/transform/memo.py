"""Content-addressed memo store for transformed kernels.

Tally transforms each distinct kernel at most once (paper §4); this
module is the "at most once" made process-wide.  A :class:`TransformMemo`
maps ``(ir_hash, transform, params)`` — see :func:`repro.ptx.ir_hash` —
to the finished transformed artifact, so every
:class:`~repro.transform.TransformPipeline` that shares a memo (every
server in a repeated-workload loop, every chaos-matrix cell, every
sweep seed) reuses compiled IR instead of recompiling it.  The pattern
is the Taichi JIT's: compile on first invocation, memoize per
instantiation — except keyed on kernel *content*, which also makes the
store safely **picklable**: :meth:`TransformMemo.snapshot` captures a
warm cache that :func:`load_snapshot` restores in another process
(:func:`repro.harness.sweep.run_sweep` ships one to each pool worker).

Keys carry no object identity, so there is nothing to invalidate:
a kernel edit changes its hash and simply misses.  The store is
LRU-bounded (:data:`DEFAULT_CAPACITY`) so unbounded kernel streams
cannot grow it without limit; evictions are counted alongside hits and
misses.

The store itself knows nothing of kernels: any frozen artifact under
a content key fits, and :meth:`repro.workloads.WorkloadModel.build_trace`
keeps its traces in one too.

The process-wide instance is :func:`transform_memo`;
``TransformPipeline(memo=transform_memo())`` (what
:class:`~repro.core.server.TallyServer` does) opts into it, while a
bare ``TransformPipeline()`` keeps a private store so unit tests stay
order-independent.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Hashable

__all__ = [
    "DEFAULT_CAPACITY",
    "MemoSnapshot",
    "TransformMemo",
    "load_snapshot",
    "transform_memo",
    "warm_snapshot",
]

#: default bound on cached artifacts (far above any workload's distinct
#: kernel count; exists so adversarial streams cannot grow unbounded)
DEFAULT_CAPACITY = 4096

#: a picklable warm-cache capture: (capacity, {key: artifact})
MemoSnapshot = tuple

#: memo keys: (ir_hash, transform name, params...) — hashable throughout
MemoKey = Hashable


class TransformMemo:
    """LRU-bounded ``(ir_hash, transform, params) -> artifact`` store."""

    def __init__(self, capacity: int | None = DEFAULT_CAPACITY) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[MemoKey, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def get(self, key: MemoKey) -> Any | None:
        """The cached artifact, or ``None`` (counted as hit or miss)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: MemoKey, artifact: Any) -> None:
        """Store ``artifact``, evicting least-recently-used overflow."""
        self._entries[key] = artifact
        self._entries.move_to_end(key)
        if self.capacity is not None:
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss/evict counters."""
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: MemoKey) -> bool:
        return key in self._entries

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the store (0.0 when idle)."""
        total = self.lookups
        return self.hits / total if total else 0.0

    # ------------------------------------------------------------------
    def snapshot(self) -> MemoSnapshot:
        """A picklable capture of the warm cache (entries, not stats).

        Artifacts (:class:`~repro.transform.slicing.SlicedKernel` and
        friends) are plain dataclasses over the IR, so the snapshot
        pickles with the standard machinery.
        """
        return (self.capacity, dict(self._entries))

    def load(self, snapshot: MemoSnapshot, *, replace: bool = False) -> int:
        """Merge a :meth:`snapshot` into this store; returns entries added.

        With ``replace=False`` (default) existing entries win, so a
        warm snapshot never clobbers fresher local work.
        """
        _capacity, entries = snapshot
        added = 0
        for key, artifact in entries.items():
            if not replace and key in self._entries:
                continue
            self.put(key, artifact)
            added += 1
        return added


#: the process-wide store (one per process; pool workers get their own,
#: optionally warmed from the parent's snapshot)
_GLOBAL_MEMO = TransformMemo()


def transform_memo() -> TransformMemo:
    """The process-wide :class:`TransformMemo`."""
    return _GLOBAL_MEMO


def warm_snapshot() -> MemoSnapshot | None:
    """Snapshot of the process-wide store, or ``None`` when cold."""
    if len(_GLOBAL_MEMO) == 0:
        return None
    return _GLOBAL_MEMO.snapshot()


def load_snapshot(snapshot: MemoSnapshot | None) -> int:
    """Warm the process-wide store from a snapshot (``None`` is a no-op)."""
    if snapshot is None:
        return 0
    return _GLOBAL_MEMO.load(snapshot)
