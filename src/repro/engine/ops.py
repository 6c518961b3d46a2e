"""Cross-shard operations and the coordinator's outbox.

An :class:`Op` is the only way coordinator state reaches a shard: a
timestamped, sequenced, picklable instruction.  The process backend
buffers ops without results in one :class:`OpQueue` outbox per worker
and flushes it lazily (before any blocking exchange), which keeps one
coordinator decision burst to one pipe write.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["Op", "OpQueue"]


@dataclass(frozen=True)
class Op:
    """One timestamped cross-shard operation."""

    seq: int            #: coordinator-wide monotone sequence number
    shard: int          #: target shard index
    at: float           #: logical application time (the issuing horizon)
    kind: str           #: domain-defined verb ("admit", "export", ...)
    payload: object = None
    #: True when the coordinator blocks on the result (e.g. a
    #: checkpoint image); False ops are batched through the outbox
    want_result: bool = False


@dataclass
class OpQueue:
    """Coordinator-side outbox of not-yet-sent ops."""

    _pending: list[Op] = field(default_factory=list)

    def push(self, op: Op) -> None:
        self._pending.append(op)

    def drain(self) -> list[Op]:
        """Take every buffered op, in push order."""
        out = self._pending
        self._pending = []
        return out

    def __len__(self) -> int:
        return len(self._pending)
