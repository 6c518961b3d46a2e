"""Tests for server-side checkpoint/restore live migration."""

import numpy as np
import pytest

from repro.baselines import Priority
from repro.core import (
    ExecMode,
    ExecPlan,
    TallyServer,
    connect_runtime,
    migrate_client,
)
from repro.errors import MigrationError, VirtError
from repro.ptx.library import vector_add
from repro.runtime import FatBinary, MemoryManager, MemorySnapshot
from repro.runtime.api import CudaRuntime
from repro.virt.interposer import InterposedBackend
from repro.virt.protocol import Envelope, MallocRequest, checksum_of


def runtime_for(channel, client_id):
    return CudaRuntime(InterposedBackend(channel, client_id))


class TestMemorySnapshot:
    def test_roundtrip_preserves_names_and_counters(self):
        manager = MemoryManager()
        ref = manager.malloc(4)
        manager.memory.array(ref)[:] = [1.0, 2.0, 3.0, 4.0]
        freed = manager.malloc(2)
        manager.free(freed)
        snap = manager.snapshot()
        assert isinstance(snap, MemorySnapshot)
        clone = MemoryManager.from_snapshot(snap)
        np.testing.assert_array_equal(
            clone.memory.array(ref), [1.0, 2.0, 3.0, 4.0])
        assert clone.live_bytes() == manager.live_bytes()
        # The allocator index carries over, so restored clients cannot
        # collide new buffers with names their old refs still point to.
        new_ref = clone.malloc(1)
        assert new_ref.buffer != ref.buffer

    def test_snapshot_is_a_deep_copy(self):
        manager = MemoryManager()
        ref = manager.malloc(2)
        manager.memory.array(ref)[:] = [7.0, 7.0]
        snap = manager.snapshot()
        manager.memory.array(ref)[:] = [0.0, 0.0]
        clone = MemoryManager.from_snapshot(snap)
        np.testing.assert_array_equal(clone.memory.array(ref), [7.0, 7.0])


class TestCheckpoint:
    def test_unknown_client_rejected(self):
        with pytest.raises(MigrationError):
            TallyServer().checkpoint("ghost")

    def test_checkpoint_carries_memory_and_code(self):
        server = TallyServer()
        rt = connect_runtime(server, "tenant", Priority.HIGH)
        rt.register_fat_binary(FatBinary.of("bin", [vector_add()]))
        ref = rt.malloc(3)
        rt.memcpy_h2d(ref, np.array([1.0, 2.0, 3.0]))
        ckpt = server.checkpoint("tenant")
        assert ckpt.client_id == "tenant"
        assert ckpt.priority is Priority.HIGH
        assert [b.name for b in ckpt.binaries] == ["bin"]
        assert ckpt.live_elements == 3

    def test_restore_rejects_duplicate_id(self):
        source, target = TallyServer(), TallyServer()
        source.connect("tenant")
        target.connect("tenant")
        with pytest.raises(MigrationError):
            target.restore(source.checkpoint("tenant"))


class TestMigrateClient:
    def test_memory_image_survives_migration(self):
        source, target = TallyServer(), TallyServer()
        rt = connect_runtime(source, "tenant", Priority.HIGH)
        ref = rt.malloc(4)
        rt.memcpy_h2d(ref, np.array([4.0, 3.0, 2.0, 1.0]))
        channel = migrate_client(source, target, "tenant")
        moved = runtime_for(channel, "tenant")
        # The same GlobalRef the client held before migration resolves
        # to the same bytes on the target server.
        np.testing.assert_array_equal(
            moved.memcpy_d2h(ref, 4), [4.0, 3.0, 2.0, 1.0])

    def test_source_forgets_the_client(self):
        source, target = TallyServer(), TallyServer()
        connect_runtime(source, "tenant")
        migrate_client(source, target, "tenant")
        with pytest.raises(VirtError):
            source.client("tenant")
        assert source.clients_collected == 1
        assert target.clients_restored == 1

    def test_registered_kernels_run_on_target(self):
        source = TallyServer(best_effort_plan=ExecPlan(ExecMode.PTB))
        target = TallyServer(best_effort_plan=ExecPlan(ExecMode.PTB))
        rt = connect_runtime(source, "tenant")
        rt.register_fat_binary(FatBinary.of("bin", [vector_add()]))
        x, y, out = rt.malloc(4), rt.malloc(4), rt.malloc(4)
        rt.memcpy_h2d(x, np.array([1.0, 2.0, 3.0, 4.0]))
        rt.memcpy_h2d(y, np.array([10.0, 10.0, 10.0, 10.0]))
        channel = migrate_client(source, target, "tenant")
        moved = runtime_for(channel, "tenant")
        moved.launch_kernel("vector_add", (1,), (4,),
                            {"x": x, "y": y, "out": out, "n": 4})
        np.testing.assert_array_equal(
            moved.memcpy_d2h(out, 4), [11.0, 12.0, 13.0, 14.0])

    def test_retried_request_replays_instead_of_reexecuting(self):
        """Idempotency across migration: the reply cache travels."""
        source, target = TallyServer(), TallyServer()
        source.connect("tenant")
        request = MallocRequest("tenant", 8)
        envelope = Envelope(request_id=1, client_id="tenant",
                            payload=request, checksum=checksum_of(request))
        first = source.handle(envelope)
        assert first.ok
        migrate_client(source, target, "tenant")
        live_before = target.client("tenant").memory_manager.live_bytes()
        retried = target.handle(envelope)  # client retries after failover
        assert retried.ok
        assert retried.value == first.value
        assert target.replay_hits == 1
        live_after = target.client("tenant").memory_manager.live_bytes()
        assert live_after == live_before  # no second allocation
