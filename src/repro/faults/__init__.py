"""Seeded fault injection and the recovery machinery it exercises.

Two halves (see ``docs/fault_tolerance.md``):

* :mod:`repro.faults.config` / :mod:`repro.faults.injector` — a frozen
  :class:`FaultConfig` describing which faults a run suffers, and a
  :class:`FaultInjector` that makes every individual injection decision
  from one seeded RNG, so a fault schedule replays bit-identically.
  The disabled default :data:`NULL_INJECTOR` mirrors ``NULL_TRACER`` /
  ``NULL_CHECKER`` — fault-free runs are unchanged.
* :mod:`repro.faults.scenarios` — harness-side helpers that arm
  device slot faults and client crashes against a running colocation.
* :mod:`repro.faults.storm` — the retry-storm chaos scenario: a
  degrade window against a capacity-limited server, run with and
  without the overload-resilience layer (:mod:`repro.virt.resilience`).

Like every package here, this one imports its submodules on first use
(:mod:`repro._lazy`): the device needs only :data:`NULL_INJECTOR`, and
``scenarios``/``storm`` import the harness/virt stack, which imports the
policies, which import the device.
"""

from __future__ import annotations

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    ".config": ("FaultConfig", "HONOURED"),
    ".injector": ("NULL_INJECTOR", "DeviceFaultEvent", "FaultInjector",
                  "NullInjector"),
    ".scenarios": ("arm_slot_faults", "schedule_client_crash"),
    ".storm": ("StormConfig", "StormResult", "run_storm", "run_storm_sweep",
               "storm_pair"),
})
