"""Shard execution: private event loops advanced to horizon grants.

A *domain* is the simulated content of one shard.  The engine is
domain-agnostic; anything that provides the small duck-typed surface
below can run under it (the cluster control plane and the retry-storm
scenario both do):

``loop``
    the shard's private :class:`~repro.gpu.engine.EventLoop`;
``apply(kind, payload, at) -> picklable``
    execute one cross-shard op at ``at`` (the loop clock is already
    there); must be deterministic;
``query(kind, payload) -> picklable``
    a read-only question (latency windows, ledgers); answers depend
    only on state at-or-below the last granted horizon;
``outputs``
    an append-only list of emitted trace events (drained by the cell);
``finalize(at) -> picklable``
    run inclusively to ``at`` and report terminal state.

Everything here runs *inside a worker* (or inline, in-process — the
code is identical).  A shard never runs past its grant, so every op
lands at or after the shard's clock; an op behind it means the
coordinator broke the horizon protocol, and the cell raises.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from .ops import Op

__all__ = ["ShardCell", "ShardProgram", "WorkerHost"]


class ShardProgram(ABC):
    """Picklable factory for shard domains.

    Must be cheap to pickle (configs only, never live objects): the
    process backend ships one copy to every worker.
    """

    @abstractmethod
    def build(self, index: int):
        """Construct shard ``index``'s domain at simulated time zero."""


class ShardCell:
    """One shard: its domain, advanced grant by grant."""

    def __init__(self, program: ShardProgram, index: int) -> None:
        self.index = index
        self.domain = program.build(index)

    def advance(self, grant: float) -> None:
        """Advance exclusively to ``grant``: grant-time events wait,
        so ops issued at the grant apply before them."""
        if self.domain.loop.now < grant:
            self.domain.loop.advance_to(grant)

    def apply(self, op: Op):
        """Apply one op at ``op.at``, coasting forward to it."""
        loop = self.domain.loop
        if loop.now > op.at:
            raise RuntimeError(
                f"op {op.seq} ({op.kind!r}) at {op.at} is behind shard "
                f"{self.index}'s clock {loop.now}: horizon protocol broken")
        if loop.now < op.at:
            loop.advance_to(op.at)
        return self.domain.apply(op.kind, op.payload, op.at)

    def drain_outputs(self, upto: float) -> list:
        """Ship outputs with ``ts < upto``, in emission order.

        The grant guarantees nothing below ``upto`` is still to come,
        so shipped entries are freed — the engine's fossil collection.
        """
        buf = self.domain.outputs
        if not buf:
            return []
        ship = [e for e in buf if e.ts < upto]
        buf[:] = [e for e in buf if e.ts >= upto]
        return ship

    def finalize(self, at: float):
        """Commit the tail of the run: everything through ``at``."""
        return self.domain.finalize(at)

    @property
    def events_processed(self) -> int:
        return self.domain.loop.events_processed


class WorkerHost:
    """A group of shard cells driven by one protocol endpoint.

    The same class backs both execution modes: the inline backend holds
    one host in-process; the process backend builds one per worker from
    the pickled program.
    """

    def __init__(self, program: ShardProgram, indices: list[int]) -> None:
        self.cells = {i: ShardCell(program, i) for i in indices}

    def advance(self, grant: float) -> dict[int, list]:
        """Advance every cell to the grant; return shipped outputs."""
        for cell in self.cells.values():
            cell.advance(grant)
        return self.drain_outputs(grant)

    def apply(self, op: Op):
        return self.cells[op.shard].apply(op)

    def query(self, shard: int, kind: str, payload):
        return self.cells[shard].domain.query(kind, payload)

    def finalize(self, at: float) -> dict[int, object]:
        """Finalize every cell; returns per-shard domain reports."""
        return {i: cell.finalize(at) for i, cell in self.cells.items()}

    def drain_outputs(self, upto: float) -> dict[int, list]:
        outputs: dict[int, list] = {}
        for index, cell in self.cells.items():
            shipped = cell.drain_outputs(upto)
            if shipped:
                outputs[index] = shipped
        return outputs

    def stats(self) -> dict[int, int]:
        """Per-shard events processed."""
        return {i: cell.events_processed for i, cell in self.cells.items()}
