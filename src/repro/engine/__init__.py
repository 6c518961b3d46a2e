"""Conservative parallel simulation engine: horizon grants, GVT commit.

One large simulation — the cluster control plane — is a set of
*shards* (device + policy + drivers) whose events are almost entirely
shard-local: cross-shard interaction happens only at *control
operations* (admissions, migrations, fault reactions, autoscaler
ticks) issued by a coordinator at times it already knows.  This
package exploits that structure:

* each shard owns a **private** :class:`~repro.gpu.engine.EventLoop`
  and advances independently;
* the coordinator grants a conservative **horizon** ``H`` — the time of
  its next control operation — and every shard advances *exclusively*
  to ``H`` (:meth:`~repro.gpu.engine.EventLoop.advance_to`), so
  operations at ``H`` always apply before same-time local events.  No
  shard ever runs past its grant, so no op can land in its past;
* **GVT** (global virtual time) is the last fully acknowledged grant:
  outputs (trace events) below it are committed in a deterministic
  merge order (:class:`~repro.engine.sync.CommitTracer`) and their
  buffers fossil-collected.

One :class:`~repro.engine.shard.ShardHost` runs every shard
in-process; :class:`~repro.engine.process.ProcessBackend`, imported
only when worker processes are asked for, runs one host per worker and
advances them to each grant in parallel.  Both commit bit-identical
results (see ``docs/performance.md``).
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".process": ("ProcessBackend",),
    ".shard": ("Op", "ShardHost"),
    ".sync": ("CommitTracer", "ShardBuffer"),
})
