"""Process backend: a :class:`~repro.engine.shard.ShardHost`'s verbs
over ``multiprocessing`` pipes, one host per worker process.

Shards are dealt round-robin across workers (the standby tail a
cluster autoscaler wakes late lives at the high indices — striding
spreads it), and an ``advance`` is posted to every worker before any
reply is read, so the workers run their shards to the grant in
parallel.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import traceback

from .shard import Op, ShardHost

__all__ = ["ProcessBackend"]


def _portable(exc: BaseException) -> BaseException:
    """Make an exception safe to ship over a pipe."""
    try:
        pickle.dumps(exc)
        return exc
    except Exception:
        return RuntimeError(
            f"{type(exc).__name__}: {exc}\n{traceback.format_exc()}")


def _handle(host: ShardHost, msg: tuple):
    verb, *args = msg
    if verb == "ops":
        for op in args[0]:
            host.op(op)
        return None
    if verb in ("advance", "op", "query", "finalize"):
        return getattr(host, verb)(*args)
    raise RuntimeError(f"unknown engine message {verb!r}")


def _worker_main(conn, program, indices: list[int], snapshot) -> None:
    """Worker process entry point: serve the pipe until ``stop``."""
    from ..transform.memo import load_snapshot
    load_snapshot(snapshot)
    host = ShardHost(program, indices)
    host.start()
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


class ProcessBackend:
    """Shard groups in worker processes, ops batched per pipe write.

    Ops without a result wait in a per-worker outbox (a list) that is
    flushed before any blocking exchange, which keeps one coordinator
    decision burst to one pipe write.  Replies arrive in request order
    on each pipe, so batched op acks are simply *deferred*:
    ``_inflight`` counts them, and any blocking exchange with a worker
    first drains (and error-checks) the backlog.
    """

    def __init__(self, program, shards: int, workers: int) -> None:
        if workers < 1:
            raise ValueError("ProcessBackend needs at least one worker")
        self.program = program
        self.shards = shards
        self.workers = min(workers, shards)
        self._conns: list = []
        self._procs: list = []
        self._outboxes: list[list[Op]] = []
        self._inflight: list[int] = []

    def start(self) -> None:
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
            self._outboxes.append([])
            self._inflight.append(0)

    # -- pipe plumbing --------------------------------------------------
    @staticmethod
    def _check(reply):
        status, value = reply
        if status == "error":
            raise value
        return value

    def _flush(self, w: int) -> None:
        batch = self._outboxes[w]
        if batch:
            self._outboxes[w] = []
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
        self._conns[w].send(msg)
        return self._check(self._conns[w].recv())

    def _gather(self, msg: tuple) -> list:
        """Post ``msg`` to every worker first, then collect the replies:
        the workers serve it in parallel."""
        for w in range(self.workers):
            self._flush(w)
            self._conns[w].send(msg)
        replies = []
        for w in range(self.workers):
            self._sync(w)
            replies.append(self._check(self._conns[w].recv()))
        return replies

    # -- the host's verbs -----------------------------------------------
    def advance(self, grant):
        outputs: dict[int, list] = {}
        for shipped in self._gather(("advance", grant)):
            outputs.update(shipped)
        return outputs

    def op(self, op: Op):
        w = op.shard % self.workers
        if op.want_result:
            return self._rpc(w, ("op", op))
        self._outboxes[w].append(op)
        return None

    def query(self, shard, kind, payload):
        return self._rpc(shard % self.workers,
                         ("query", shard, kind, payload))

    def finalize(self, at):
        merged = ({}, {}, {})  # reports, outputs, stats
        for parts in self._gather(("finalize", at)):
            for into, part in zip(merged, parts):
                into.update(part)
        return merged

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
