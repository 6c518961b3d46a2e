"""Harness-level fault scenarios: slot faults and client crashes.

The :class:`~repro.faults.injector.FaultInjector` decides *whether* and
*when* faults fire; this module turns those decisions into simulated
events.  Two scenarios live at the harness layer because they need
objects no single component owns:

* **slot faults** — a device-level reset of one resident launch (an ECC
  error, an MMU fault on the victim's slot).  The device kills the
  launch; its owning policy sees an ordinary ``PREEMPTED`` completion
  and re-runs the lost work, so recovery exercises the same paths as
  preemption.
* **client crashes** — a workload process dying mid-run.  The driver
  stops submitting, and the policy's
  :meth:`~repro.baselines.base.SharingPolicy.disconnect` garbage-
  collects device-side state so survivors are not wedged behind a
  ghost client.

Both emit typed trace events (see ``docs/fault_tolerance.md``).
"""

from __future__ import annotations

from typing import Protocol

from ..gpu.device import GPUDevice
from ..gpu.engine import EventLoop
from .. import trace
from ..trace import NULL_TRACER, Tracer
from .injector import FaultInjector

__all__ = ["arm_slot_faults", "schedule_client_crash"]


class _Crashable(Protocol):
    def crash(self) -> None: ...


class _Disconnectable(Protocol):
    def disconnect(self, client_id: str) -> None: ...


def _slot_fault_victim(device: GPUDevice):
    """Pick the launch a slot fault hits (deterministically).

    Faults bias toward the launch occupying the most slots for the
    longest — modelled as the lowest-priority, oldest resident launch
    (best-effort kernels occupy the device for whole iterations, so
    they present the largest cross-section).  Ties cannot occur:
    ``seq`` is unique.
    """
    candidates = [l for l in device.resident_launches if not l.done]
    if not candidates:
        return None
    return max(candidates, key=lambda l: (l.priority, -l.seq))


def arm_slot_faults(device: GPUDevice, engine: EventLoop,
                    faults: FaultInjector, duration: float, *,
                    tracer: Tracer = NULL_TRACER) -> int:
    """Schedule the injector's slot-fault arrivals over ``duration``.

    Returns the number of faults armed.  Each firing kills one resident
    launch (chosen by :func:`_slot_fault_victim`); firings that find an
    idle device are no-ops, so the armed count is an upper bound on the
    faults actually injected (``faults.injected["slot_fault"]`` is the
    exact count).
    """
    times = faults.slot_fault_times(duration)
    for when in times:
        engine.schedule_at(when, lambda: _fire_slot_fault(
            device, engine, faults, tracer))
    return len(times)


def _fire_slot_fault(device: GPUDevice, engine: EventLoop,
                     faults: FaultInjector, tracer: Tracer) -> None:
    victim = _slot_fault_victim(device)
    if victim is None:
        return  # device idle; the fault hit an empty slot
    blocks_lost = victim.blocks_inflight
    faults.injected["slot_fault"] += 1
    if tracer.enabled:
        tracer.emit(trace.SlotFault(
            ts=engine.now, client_id=victim.client_id,
            kernel=victim.descriptor.name, launch_seq=victim.seq,
            blocks_lost=blocks_lost,
        ))
    device.kill(victim)


def schedule_client_crash(engine: EventLoop, when: float,
                          driver: _Crashable, policy: _Disconnectable,
                          client_id: str, *,
                          tracer: Tracer = NULL_TRACER) -> None:
    """Arrange for ``client_id`` to die at simulated time ``when``.

    At the deadline the driver's :meth:`crash` stops all future
    submissions, then the policy's :meth:`disconnect` reclaims the
    crashed client's device-side state (killing severed launches,
    dropping queues) so surviving clients keep making progress.
    """
    def fire() -> None:
        if tracer.enabled:
            tracer.emit(trace.ClientCrash(
                ts=engine.now, client_id=client_id, kernel="",
                reason="injected",
            ))
        driver.crash()
        policy.disconnect(client_id)

    engine.schedule_at(when, fire)
