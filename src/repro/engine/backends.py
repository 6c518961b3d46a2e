"""Execution backends: one protocol, inline or process workers.

A backend owns the shard side of the engine: the coordinator talks to
it through four verbs —

``advance(grant)``
    barrier: every shard advances exclusively to ``grant`` and ships
    its outputs below it;
``op(op)``
    deliver one cross-shard operation; ``want_result`` ops are
    synchronous round trips, the rest the process backend batches in a
    per-worker outbox that is flushed before any blocking exchange;
``query(shard, kind, payload)``
    read-only question answered from at-or-below committed time;
``finalize(at)``
    run every shard inclusively to ``at`` and return
    ``(reports, outputs, stats)``.

:class:`InlineBackend` executes everything in-process.
:class:`ProcessBackend` is the same protocol over ``multiprocessing``
pipes: shards are dealt round-robin across workers (the standby tail a
cluster autoscaler wakes late lives at the high indices — striding
spreads it), and an ``advance`` is posted to every worker before any
reply is read, so the workers run their shards to the grant in
parallel.
"""

from __future__ import annotations

import pickle
import traceback
from abc import ABC, abstractmethod

from .ops import Op, OpQueue
from .shard import ShardProgram, WorkerHost

__all__ = ["EngineBackend", "InlineBackend", "ProcessBackend"]


class EngineBackend(ABC):
    """Coordinator-facing protocol over a set of shard cells."""

    @abstractmethod
    def start(self) -> None: ...

    @abstractmethod
    def advance(self, grant: float) -> dict[int, list]: ...

    @abstractmethod
    def op(self, op: Op): ...

    @abstractmethod
    def query(self, shard: int, kind: str, payload): ...

    @abstractmethod
    def finalize(self, at: float) -> tuple[dict, dict, dict]: ...

    @abstractmethod
    def stop(self) -> None: ...


class InlineBackend(EngineBackend):
    """All shards in-process: the serial engine and ``workers <= 1``."""

    def __init__(self, program: ShardProgram, shards: int) -> None:
        self.program = program
        self.shards = shards
        self.host: WorkerHost | None = None

    def start(self) -> None:
        self.host = WorkerHost(self.program, list(range(self.shards)))

    def advance(self, grant):
        return self.host.advance(grant)

    def op(self, op: Op):
        result = self.host.apply(op)
        return result if op.want_result else None

    def query(self, shard, kind, payload):
        return self.host.query(shard, kind, payload)

    def finalize(self, at):
        reports = self.host.finalize(at)
        outputs = self.host.drain_outputs(float("inf"))
        return reports, outputs, self.host.stats()

    def stop(self) -> None:
        self.host = None


# ---------------------------------------------------------------------------
# process backend
# ---------------------------------------------------------------------------

def _portable(exc: BaseException) -> BaseException:
    """Make an exception safe to ship over a pipe."""
    try:
        pickle.dumps(exc)
        return exc
    except Exception:
        return RuntimeError(
            f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}")


def _handle(host: WorkerHost, msg: tuple):
    kind = msg[0]
    if kind == "advance":
        return host.advance(msg[1])
    if kind == "ops":
        for op in msg[1]:
            host.apply(op)
        return None
    if kind == "op":
        return host.apply(msg[1])
    if kind == "query":
        return host.query(msg[1], msg[2], msg[3])
    if kind == "finalize":
        reports = host.finalize(msg[1])
        outputs = host.drain_outputs(float("inf"))
        return reports, outputs, host.stats()
    raise RuntimeError(f"unknown engine message {kind!r}")


def _worker_main(conn, program: ShardProgram, indices: list[int],
                 snapshot) -> None:
    """Worker process entry point: serve the pipe until ``stop``."""
    from ..transform.memo import load_snapshot
    load_snapshot(snapshot)
    host = WorkerHost(program, indices)
    try:
        while True:
            msg = conn.recv()
            if msg[0] == "stop":
                conn.send(("ok", None))
                return
            try:
                conn.send(("ok", _handle(host, msg)))
            except Exception as exc:
                conn.send(("error", _portable(exc)))
    except (EOFError, BrokenPipeError, KeyboardInterrupt):
        return


class ProcessBackend(EngineBackend):
    """Shard groups in worker processes, ops batched per pipe write.

    Replies arrive in request order on each pipe, so batched op acks
    are simply *deferred*: ``_inflight`` counts them, and any blocking
    exchange with a worker first drains (and error-checks) the backlog.
    """

    def __init__(self, program: ShardProgram, shards: int,
                 workers: int) -> None:
        if workers < 1:
            raise ValueError("ProcessBackend needs at least one worker")
        self.program = program
        self.shards = shards
        self.workers = min(workers, shards)
        self._conns: list = []
        self._procs: list = []
        self._outboxes: list[OpQueue] = []
        self._inflight: list[int] = []

    def _worker_of(self, shard: int) -> int:
        return shard % self.workers

    def start(self) -> None:
        import multiprocessing as mp
        from ..transform.memo import warm_snapshot
        try:
            ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-posix fallback
            ctx = mp.get_context()
        snapshot = warm_snapshot()
        for w in range(self.workers):
            indices = list(range(w, self.shards, self.workers))
            parent, child = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(child, self.program, indices, snapshot),
                daemon=True)
            proc.start()
            child.close()
            self._conns.append(parent)
            self._procs.append(proc)
            self._outboxes.append(OpQueue())
            self._inflight.append(0)

    # -- pipe plumbing --------------------------------------------------
    @staticmethod
    def _check(reply):
        status, value = reply
        if status == "error":
            raise value
        return value

    def _flush(self, w: int) -> None:
        batch = self._outboxes[w].drain()
        if batch:
            self._conns[w].send(("ops", batch))
            self._inflight[w] += 1

    def _sync(self, w: int) -> None:
        """Drain deferred op-batch acks (errors surface here)."""
        conn = self._conns[w]
        while self._inflight[w]:
            self._inflight[w] -= 1
            self._check(conn.recv())

    def _rpc(self, w: int, msg: tuple):
        self._flush(w)
        self._sync(w)
        conn = self._conns[w]
        conn.send(msg)
        return self._check(conn.recv())

    # -- protocol -------------------------------------------------------
    def advance(self, grant):
        # post to every worker first, then collect — the barrier overlaps
        for w in range(self.workers):
            self._flush(w)
            self._conns[w].send(("advance", grant))
        outputs: dict[int, list] = {}
        for w in range(self.workers):
            self._sync(w)
            outputs.update(self._check(self._conns[w].recv()))
        return outputs

    def op(self, op: Op):
        w = self._worker_of(op.shard)
        if op.want_result:
            return self._rpc(w, ("op", op))
        self._outboxes[w].push(op)
        return None

    def query(self, shard, kind, payload):
        return self._rpc(self._worker_of(shard), ("query", shard, kind,
                                                  payload))

    def finalize(self, at):
        for w in range(self.workers):
            self._flush(w)
            self._conns[w].send(("finalize", at))
        reports: dict = {}
        outputs: dict = {}
        stats: dict = {}
        for w in range(self.workers):
            self._sync(w)
            r, o, s = self._check(self._conns[w].recv())
            reports.update(r)
            outputs.update(o)
            stats.update(s)
        return reports, outputs, stats

    def stop(self) -> None:
        for w, conn in enumerate(self._conns):
            try:
                self._sync(w)
                conn.send(("stop",))
                self._check(conn.recv())
            except (OSError, EOFError, BrokenPipeError):
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()
        self._conns, self._procs = [], []
        self._outboxes, self._inflight = [], []
