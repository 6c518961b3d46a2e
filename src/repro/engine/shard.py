"""Shard execution: private event loops advanced to horizon grants.

A *domain* is the simulated content of one shard, built at simulated
time zero by a *program*'s ``build(index)``; a program holds configs
only, never live objects, so the process backend can pickle it to
every worker.  The engine is domain-agnostic; a domain provides:

``loop``
    the shard's private :class:`~repro.gpu.engine.EventLoop`;
``apply(kind, payload, at) -> picklable``
    execute one cross-shard op at ``at`` (the loop clock is already
    there); must be deterministic;
``query(kind, payload) -> picklable``
    a read-only question answered from state at-or-below the last
    granted horizon;
``outputs``
    an append-only list of emitted trace events (drained by the host);
``finalize(at) -> picklable``
    run inclusively to ``at`` and report terminal state.

A shard never runs past its grant, so every op lands at or after the
shard's clock; an op behind it means the coordinator broke the horizon
protocol, and the host raises.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Op", "ShardHost"]


@dataclass(frozen=True)
class Op:
    """One timestamped cross-shard operation: the only way coordinator
    state reaches a shard."""

    seq: int            #: coordinator-wide monotone sequence number
    shard: int          #: target shard index
    at: float           #: logical application time (the issuing horizon)
    kind: str           #: domain-defined verb ("admit", "export", ...)
    payload: object = None
    #: True when the coordinator blocks on the result (e.g. a driver's
    #: pending requests); the process backend batches the others
    want_result: bool = False


class ShardHost:
    """Shard domains by index, driven grant by grant through the
    coordinator's verbs.  One host holds every shard in-process (the
    serial engine and ``workers <= 1``); each worker of
    :class:`~repro.engine.process.ProcessBackend` serves one host."""

    def __init__(self, program, indices) -> None:
        self.program = program
        self.indices = list(indices)
        self.domains: dict[int, object] = {}

    def start(self) -> None:
        self.domains = {i: self.program.build(i) for i in self.indices}

    def advance(self, grant: float) -> dict[int, list]:
        """Advance every shard exclusively to ``grant`` (grant-time
        events wait, so ops issued at the grant apply before them);
        return the outputs shipped below it."""
        for domain in self.domains.values():
            if domain.loop.now < grant:
                domain.loop.advance_to(grant)
        return self._ship(grant)

    def op(self, op: Op):
        """Apply one op at ``op.at``, coasting its shard forward to it."""
        domain = self.domains[op.shard]
        loop = domain.loop
        if loop.now > op.at:
            raise RuntimeError(
                f"op {op.seq} ({op.kind!r}) at {op.at} is behind shard "
                f"{op.shard}'s clock {loop.now}: horizon protocol broken")
        if loop.now < op.at:
            loop.advance_to(op.at)
        result = domain.apply(op.kind, op.payload, op.at)
        return result if op.want_result else None

    def query(self, shard: int, kind: str, payload):
        return self.domains[shard].query(kind, payload)

    def finalize(self, at: float) -> tuple[dict, dict, dict]:
        """Run every shard inclusively to ``at``: per-shard domain
        reports, the remaining outputs and events processed."""
        reports = {i: d.finalize(at) for i, d in self.domains.items()}
        outputs = self._ship(float("inf"))
        stats = {i: d.loop.events_processed
                 for i, d in self.domains.items()}
        return reports, outputs, stats

    def stop(self) -> None:
        self.domains = {}

    def _ship(self, upto: float) -> dict[int, list]:
        """Take every shard's outputs with ``ts < upto``, in emission
        order.  Nothing below ``upto`` is still to come, so shipped
        entries are freed: the engine's fossil collection."""
        shipped: dict[int, list] = {}
        for index, domain in self.domains.items():
            buf = domain.outputs
            if not buf:
                continue
            ship = [e for e in buf if e.ts < upto]
            buf[:] = [e for e in buf if e.ts >= upto]
            if ship:
                shipped[index] = ship
        return shipped
