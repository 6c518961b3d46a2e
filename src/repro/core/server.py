"""The Tally server (functional path).

One server process owns the device and executes work on behalf of all
client processes.  Each client keeps its own address space (memory
image, registered device code); the server transforms and runs kernels
transparently — clients cannot tell whether their kernels ran original,
sliced, or as persistent thread blocks.

This module is the functional-correctness half of Tally; the timing
half (priority-aware scheduling over the discrete-event GPU) is
:mod:`repro.core.scheduler`.  They share the transformation machinery.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable

from ..baselines.base import Priority
from ..errors import ExecutionError, MigrationError, VirtError
from ..faults.injector import NULL_INJECTOR
from ..ptx.interpreter import Interpreter
from ..runtime.memory import MemoryManager, MemorySnapshot
from ..runtime.registration import FatBinary, ModuleRegistry
from .. import trace
from ..trace import NULL_TRACER
from ..transform.memo import transform_memo
from ..virt.channel import Channel, ChannelConfig, SHARED_MEMORY
from ..virt.protocol import (
    Envelope,
    FreeRequest,
    LaunchKernelRequest,
    MallocRequest,
    MemcpyD2HRequest,
    MemcpyH2DRequest,
    RegisterBinaryRequest,
    Request,
    Response,
    SynchronizeRequest,
    checksum_of,
)
from .transformer import ExecMode, ExecPlan, KernelTransformer

__all__ = ["ClientCheckpoint", "ClientState", "TallyServer", "migrate_client"]

#: replies remembered per server for idempotent replay of retried or
#: duplicated envelopes; old entries evict in arrival order
REPLY_CACHE_SIZE = 256


@dataclass
class ClientState:
    """Server-side state of one connected client process."""

    client_id: str
    priority: Priority
    plan: ExecPlan
    registry: ModuleRegistry = field(default_factory=ModuleRegistry)
    memory_manager: MemoryManager = field(default_factory=MemoryManager)
    interpreter: Interpreter = field(init=False)
    launches: int = 0

    def __post_init__(self) -> None:
        self.interpreter = Interpreter(self.memory_manager.memory)


@dataclass(frozen=True)
class ClientCheckpoint:
    """Replayable server-side state of one client, for live migration.

    Everything :meth:`TallyServer.restore` needs to resume the client on
    another server with no observable difference: execution plan,
    registered device code, the full memory image (which *is* the LLM
    KV-cache occupancy — KV blocks are ordinary ``MemoryManager``
    allocations), and the client's cached replies so a request retried
    across the migration replays idempotently instead of re-executing.
    """

    client_id: str
    priority: Priority
    plan: ExecPlan
    binaries: tuple[FatBinary, ...]
    memory: MemorySnapshot
    replies: tuple[tuple[int, Response], ...]  # request_id -> cached reply
    launches: int = 0

    @property
    def live_elements(self) -> int:
        """Device-memory footprint carried by this checkpoint."""
        return self.memory.live_elements


class TallyServer:
    """Handles the virtualization protocol and executes device work."""

    def __init__(self, *,
                 best_effort_plan: ExecPlan = ExecPlan(ExecMode.PTB),
                 faults: Any = NULL_INJECTOR,
                 tracer: Any = NULL_TRACER,
                 clock: Callable[[], float] | None = None) -> None:
        self.best_effort_plan = best_effort_plan
        # Servers share the process-wide transform memo: a kernel any
        # server already compiled (same content hash) is reused across
        # repeated workloads, chaos cells, and reconnecting clients.
        self.transformer = KernelTransformer(memo=transform_memo(),
                                             tracer=tracer)
        self.faults = faults
        self.tracer = tracer
        # Deadline propagation needs a notion of "now"; without an
        # injected clock (e.g. an EventLoop's ``now``) the server cannot
        # tell whether an envelope's deadline has passed and never sheds.
        self.clock = clock
        self._clients: dict[str, ClientState] = {}
        self._replies: OrderedDict[tuple[str, int], Response] = OrderedDict()
        self.requests_handled = 0
        self.replay_hits = 0
        self.clients_collected = 0
        self.clients_restored = 0
        #: envelopes refused because their propagated deadline had passed
        self.deadline_sheds = 0

    # ------------------------------------------------------------------
    # Connection management
    # ------------------------------------------------------------------
    def connect(self, client_id: str,
                priority: Priority = Priority.BEST_EFFORT, *,
                plan: ExecPlan | None = None,
                channel_config: ChannelConfig = SHARED_MEMORY) -> Channel:
        """Register a client and return its communication channel.

        High-priority clients always execute original kernels; best-
        effort clients execute under ``plan`` (default: the server-wide
        best-effort plan) — the client cannot observe the difference.
        """
        if client_id in self._clients:
            raise VirtError(f"client {client_id!r} already connected")
        if priority is Priority.HIGH:
            effective = ExecPlan(ExecMode.ORIGINAL)
        else:
            effective = plan if plan is not None else self.best_effort_plan
        self._clients[client_id] = ClientState(client_id, priority, effective)
        return Channel(self.handle, channel_config, faults=self.faults,
                       tracer=self.tracer, client_id=client_id,
                       clock=self.clock)

    def client(self, client_id: str) -> ClientState:
        try:
            return self._clients[client_id]
        except KeyError:
            raise VirtError(f"unknown client {client_id!r}") from None

    def disconnect(self, client_id: str, *, ts: float = 0.0) -> ClientState | None:
        """Garbage-collect a dead client's server-side state.

        Frees every live device allocation, drops the module registry
        and interpreter, and forgets cached replies — surviving clients
        are untouched.  Idempotent: disconnecting an unknown (or
        already-collected) client is a no-op returning ``None``.
        """
        state = self._clients.pop(client_id, None)
        if state is None:
            return None
        freed_bytes = state.memory_manager.live_bytes()
        buffers = state.memory_manager.live_buffers()
        state.memory_manager.release_all()
        for key in [k for k in self._replies if k[0] == client_id]:
            del self._replies[key]
        self.clients_collected += 1
        if self.tracer.enabled:
            self.tracer.emit(trace.ClientGC(
                ts=ts, client_id=client_id, kernel="", scope="server",
                freed_bytes=freed_bytes, buffers_freed=buffers,
            ))
        return state

    # ------------------------------------------------------------------
    # Checkpoint/restore (live migration)
    # ------------------------------------------------------------------
    def checkpoint(self, client_id: str) -> ClientCheckpoint:
        """Serialize ``client_id``'s replayable state for migration.

        The source server keeps serving the client until
        :meth:`disconnect` garbage-collects it — callers migrating a
        live client should checkpoint, restore on the target, then
        disconnect here (:func:`migrate_client` does exactly that).
        """
        state = self._clients.get(client_id)
        if state is None:
            raise MigrationError(
                f"cannot checkpoint unknown client {client_id!r}")
        return ClientCheckpoint(
            client_id=client_id,
            priority=state.priority,
            plan=state.plan,
            binaries=tuple(state.registry.binaries()),
            memory=state.memory_manager.snapshot(),
            replies=tuple((rid, reply) for (cid, rid), reply
                          in self._replies.items() if cid == client_id),
            launches=state.launches,
        )

    def restore(self, ckpt: ClientCheckpoint, *,
                channel_config: ChannelConfig = SHARED_MEMORY) -> Channel:
        """Recreate a checkpointed client on this server.

        Rebuilds the memory image (buffer names preserved, so every
        handle the client holds stays valid), re-registers its device
        code, and reinstalls its cached replies so retried envelopes
        still replay.  Returns the client's new channel, with its
        request-id sequence advanced past every migrated reply — a
        fresh request must never collide with a cached id, or the cache
        would answer it with another call's stale reply.
        """
        if ckpt.client_id in self._clients:
            raise MigrationError(
                f"client {ckpt.client_id!r} is already registered on the "
                "restore target")
        state = ClientState(
            ckpt.client_id, ckpt.priority, ckpt.plan,
            memory_manager=MemoryManager.from_snapshot(ckpt.memory),
        )
        for binary in ckpt.binaries:
            state.registry.register(binary)
        state.launches = ckpt.launches
        self._clients[ckpt.client_id] = state
        for rid, reply in ckpt.replies:
            self._replies[(ckpt.client_id, rid)] = reply
        while len(self._replies) > REPLY_CACHE_SIZE:
            self._replies.popitem(last=False)
        self.clients_restored += 1
        channel = Channel(self.handle, channel_config, faults=self.faults,
                          tracer=self.tracer, client_id=ckpt.client_id,
                          clock=self.clock)
        channel.resume_sequence(max((rid for rid, _ in ckpt.replies),
                                    default=0))
        return channel

    # ------------------------------------------------------------------
    # Protocol handling
    # ------------------------------------------------------------------
    def handle(self, request: Request | Envelope) -> Response:
        """Process one protocol request; never raises (errors go in the
        response, exactly like a real RPC server).

        Envelope-framed requests get the reliability extras: the payload
        checksum is verified (a mismatch is answered with a *retryable*
        failure, never executed) and replies are cached by (client,
        request id) so a retried or duplicated envelope replays the
        original reply instead of re-executing the operation.  An
        envelope whose propagated deadline has already passed (by the
        server's injected clock) is *shed* — answered with a
        non-retryable failure without executing, sparing capacity the
        caller can no longer benefit from.
        """
        self.requests_handled += 1
        if isinstance(request, Envelope):
            key = (request.client_id, request.request_id)
            cached = self._replies.get(key)
            if cached is not None:
                self.replay_hits += 1
                return cached
            if checksum_of(request.payload) != request.checksum:
                return Response.transport_failure(
                    "request checksum mismatch (corrupted in transit)")
            if (request.deadline is not None and self.clock is not None
                    and self.clock() >= request.deadline):
                return self._shed_past_deadline(request)
            response = self._execute(request.payload)
            self._replies[key] = response
            while len(self._replies) > REPLY_CACHE_SIZE:
                self._replies.popitem(last=False)
            return response
        return self._execute(request)

    def _shed_past_deadline(self, envelope: Envelope) -> Response:
        now = self.clock() if self.clock is not None else 0.0
        self.deadline_sheds += 1
        if self.tracer.enabled:
            self.tracer.emit(trace.DeadlineShed(
                ts=now,
                client_id=envelope.client_id,
                kernel="",
                scope="server",
                deadline=envelope.deadline or 0.0,
                lateness=now - (envelope.deadline or 0.0),
            ))
        return Response.failure(
            f"deadline {envelope.deadline:.6f} already passed at "
            f"{now:.6f}; request shed")

    def _execute(self, request: Request) -> Response:
        try:
            return Response.success(self._dispatch(request))
        except Exception as exc:  # noqa: BLE001 - the server must survive
            # any request, malformed ones included; the error travels
            # back in the response like a real RPC failure
            return Response.failure(f"{type(exc).__name__}: {exc}")

    def _dispatch(self, request: Request) -> Any:
        client_id = getattr(request, "client_id", None)
        if not isinstance(client_id, str):
            raise VirtError(
                f"malformed request {type(request).__name__}: no client_id")
        state = self.client(client_id)
        if isinstance(request, RegisterBinaryRequest):
            state.registry.register(request.binary)
            return None
        if isinstance(request, MallocRequest):
            return state.memory_manager.malloc(request.num_elements,
                                               request.dtype)
        if isinstance(request, FreeRequest):
            state.memory_manager.free(request.ref)
            return None
        if isinstance(request, MemcpyH2DRequest):
            state.memory_manager.memcpy_h2d(request.dst, request.data)
            return None
        if isinstance(request, MemcpyD2HRequest):
            return state.memory_manager.memcpy_d2h(request.src,
                                                   request.num_elements)
        if isinstance(request, LaunchKernelRequest):
            kernel = state.registry.lookup(request.kernel_name)
            if self.faults.enabled and self.faults.kernel_fault():
                raise ExecutionError(
                    f"injected device fault while executing "
                    f"{request.kernel_name!r}")
            self.transformer.execute(
                state.interpreter, kernel, request.grid, request.block,
                request.args, state.plan, faults=self.faults,
            )
            state.launches += 1
            return None
        if isinstance(request, SynchronizeRequest):
            return None  # execution is synchronous on the functional path
        raise VirtError(f"unknown request type {type(request).__name__}")


def migrate_client(source: TallyServer, target: TallyServer,
                   client_id: str, *, ts: float = 0.0,
                   channel_config: ChannelConfig = SHARED_MEMORY) -> Channel:
    """Move ``client_id`` from ``source`` to ``target`` atomically.

    Checkpoint on the source, restore on the target, then garbage-
    collect the source copy — the order matters: if restore raises
    (e.g. the id is taken on the target) the source copy is untouched
    and the client keeps running where it was.
    """
    ckpt = source.checkpoint(client_id)
    channel = target.restore(ckpt, channel_config=channel_config)
    source.disconnect(client_id, ts=ts)
    return channel
