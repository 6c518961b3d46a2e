"""Optimistic (time-warp) parallel simulation engine.

One large simulation — the cluster control plane, a retry storm — is a
set of *shards* (device + policy + server + drivers) whose events are
almost entirely shard-local: cross-shard interaction happens only at
*control operations* (admissions, migrations, fault reactions,
autoscaler ticks) issued by a coordinator at times it already knows.
This package exploits that structure:

* each shard owns a **private** :class:`~repro.gpu.engine.EventLoop`
  and advances independently;
* the coordinator grants a conservative **horizon** ``H`` — the time of
  its next control operation — and every shard advances *exclusively*
  to ``H`` (:meth:`~repro.gpu.engine.EventLoop.advance_to`), so
  operations at ``H`` always apply before same-time local events;
* beyond the horizon shards **speculate** up to a lookahead bound
  derived from the minimum cross-shard latency (arrival dispatch,
  migration downtime, autoscaler tick);
* an operation landing in a shard's speculated past is a *straggler*:
  the shard **rolls back** by deterministic replay — rebuild the shard
  from genesis, re-apply its logged operations in order, and advance to
  the straggler's timestamp (coast-forward).  Replay *is* the
  anti-message: every speculated event past the straggler is cancelled
  wholesale.  Queued-but-unsent operations are annihilated in the
  outbox (:class:`~repro.engine.ops.OpQueue`), and
  :class:`~repro.engine.ops.Revoke` cancels an already-applied one;
* **GVT** (global virtual time) is the last fully acknowledged grant:
  outputs (trace events) below it are committed in a deterministic
  merge order (:class:`~repro.engine.sync.CommitTracer`) and their
  buffers fossil-collected.

Backends: :class:`~repro.engine.backends.InlineBackend` runs every
shard in-process (deterministic; the conservative schedule, the tests
and ``workers<=1``); :class:`~repro.engine.backends.ProcessBackend`
runs shard groups in worker processes — the configuration that
actually buys wall-clock speedup.  Both speak the identical protocol,
and speculative runs on either are validated bit-identical to the
conservative schedule, which never speculates (see
``docs/performance.md``).
"""

from .backends import EngineBackend, InlineBackend, ProcessBackend
from .ops import Op, OpQueue, Revoke
from .shard import ShardCell, ShardProgram, WorkerHost
from .sync import CommitTracer

__all__ = [
    "CommitTracer",
    "EngineBackend",
    "InlineBackend",
    "Op",
    "OpQueue",
    "ProcessBackend",
    "Revoke",
    "ShardCell",
    "ShardProgram",
    "WorkerHost",
]
