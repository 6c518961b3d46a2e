"""Fault-injection configuration.

One :class:`FaultConfig` describes *which* faults a run is subjected to
and *how often*; a :class:`~repro.faults.injector.FaultInjector` seeded
from it makes every individual injection decision deterministically.
The same config + seed therefore reproduces the same fault schedule —
chaos runs replay bit-identically, which is what lets the chaos suite
assert recovery instead of merely surviving.

Configs are CLI-friendly: ``FaultConfig.parse("seed=7,lost_ack=1,
slot_fault_rate=2")`` builds one from the ``--faults`` argument of
``colocate``/``cluster``.

An entry point honours the fields its layers consult (:data:`HONOURED`)
and rejects the rest when it is built
(:meth:`FaultConfig.reject_unhonoured`): an ignored knob is an error.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..errors import HarnessError

__all__ = ["FaultConfig", "HONOURED"]

#: probability fields, validated to lie in [0, 1]
_RATE_FIELDS = ("drop", "duplicate", "corrupt", "delay", "kernel_fault",
                "transform_fail_rate", "lost_ack")

#: the fields each entry point honours besides ``seed``; ``lost_ack``
#: and ``transform_fail_rate`` act on Tally's PTB and transformations
HONOURED = {entry: frozenset(names.split()) for entry, names in {
    "TallyServer": "drop duplicate corrupt delay delay_time "
                   "crash_after_calls kernel_fault transform_fail_rate",
    "run_colocation": "transform_fail_rate lost_ack slot_fault_rate crash_at",
    "ClusterController": "transform_fail_rate lost_ack slot_fault_rate "
                         "device_crash_rate device_degraded_rate "
                         "degraded_factor degraded_duration "
                         "device_flap_rate flap_count flap_period",
}.items()}


@dataclass(frozen=True)
class FaultConfig:
    """Seeded description of the faults injected into one run.

    All probabilities are per *opportunity* (per message direction, per
    launch, per preempt request, ...); ``0.0`` disables that fault.
    """

    #: seed of the injector's RNG — the whole fault schedule follows
    seed: int = 0

    # -- channel faults (virtualization layer, per message direction) --
    #: P(message lost in transit; the sender times out and retries)
    drop: float = 0.0
    #: P(request delivered twice; the server's replay cache dedupes)
    duplicate: float = 0.0
    #: P(payload corrupted; detected via checksum, answered retryable)
    corrupt: float = 0.0
    #: P(message delayed by ``delay_time`` seconds of transport time)
    delay: float = 0.0
    #: extra modelled latency of a delayed message (seconds)
    delay_time: float = 200e-6
    #: client process dies at this protocol call (0-based); None = never
    crash_after_calls: int | None = None

    # -- server / interpreter faults (functional path) --
    #: P(an injected execution fault aborts a kernel launch)
    kernel_fault: float = 0.0
    #: P(a transformation kind is unusable for a kernel); sampled once
    #: per (kernel, kind) and cached, so the ladder settles
    transform_fail_rate: float = 0.0

    # -- scheduler / device faults (timing path) --
    #: P(a PTB preempt-flag delivery is lost; the ack never arrives)
    lost_ack: float = 0.0
    #: expected device slot faults (spurious resets of a resident
    #: launch) per simulated second (Poisson arrivals)
    slot_fault_rate: float = 0.0
    #: simulated time at which the best-effort client crashes (CLI
    #: convenience; harness users set JobSpec.crash_at directly)
    crash_at: float | None = None

    # -- cluster / device faults (control plane) --
    #: expected device crashes per simulated second (per device);
    #: the first arrival kills the device for the rest of the run
    device_crash_rate: float = 0.0
    #: expected transient-degradation windows per simulated second
    #: (per device; thermal throttling, noisy host neighbours)
    device_degraded_rate: float = 0.0
    #: block-duration multiplier while a device is degraded
    degraded_factor: float = 4.0
    #: length of one degradation window (seconds)
    degraded_duration: float = 0.5
    #: expected flapping bursts per simulated second (per device) — a
    #: burst is ``flap_count`` short degrade/recover cycles in a row
    device_flap_rate: float = 0.0
    #: degrade/recover cycles per flapping burst
    flap_count: int = 4
    #: spacing of flap cycles (each degraded for half the period)
    flap_period: float = 0.2

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise HarnessError(f"fault rate {name}={value} outside [0, 1]")
        if self.delay_time < 0:
            raise HarnessError("delay_time must be >= 0")
        if self.slot_fault_rate < 0:
            raise HarnessError("slot_fault_rate must be >= 0")
        if self.crash_after_calls is not None and self.crash_after_calls < 0:
            raise HarnessError("crash_after_calls must be >= 0")
        if self.crash_at is not None and self.crash_at < 0:
            raise HarnessError("crash_at must be >= 0")
        for name in ("device_crash_rate", "device_degraded_rate",
                     "device_flap_rate"):
            if getattr(self, name) < 0:
                raise HarnessError(f"{name} must be >= 0")
        if self.degraded_factor < 1.0:
            raise HarnessError("degraded_factor must be >= 1.0")
        if self.degraded_duration <= 0:
            raise HarnessError("degraded_duration must be > 0")
        if self.flap_count < 1:
            raise HarnessError("flap_count must be >= 1")
        if self.flap_period <= 0:
            raise HarnessError("flap_period must be > 0")

    def reject_unhonoured(self, entry_point: str, hint: str = "") -> None:
        """Raise :class:`HarnessError` naming each field ``entry_point``
        does not honour that is set away from its default, the entry
        points that do honour it, and ``hint``."""
        ignored = [
            f"{f.name}={getattr(self, f.name)!r} (honoured by "
            + ", ".join(e for e, names in HONOURED.items() if f.name in names)
            + ")" for f in fields(self)
            if f.name != "seed" and f.name not in HONOURED[entry_point]
            and getattr(self, f.name) != f.default]
        if ignored:
            raise HarnessError(f"{entry_point} ignores FaultConfig "
                               + "; ".join(filter(None, [*ignored, hint])))

    @property
    def any_channel_faults(self) -> bool:
        return (self.drop > 0 or self.duplicate > 0 or self.corrupt > 0
                or self.delay > 0 or self.crash_after_calls is not None)

    @property
    def any_device_faults(self) -> bool:
        """Whether any cluster-level device fault kind is enabled."""
        return (self.device_crash_rate > 0 or self.device_degraded_rate > 0
                or self.device_flap_rate > 0)

    @staticmethod
    def parse(spec: str) -> "FaultConfig":
        """Build a config from a ``key=value,key=value`` CLI string.

        Keys are the dataclass field names; values are parsed by the
        field's type (``seed=7,lost_ack=0.01,crash_at=2.5``).
        """
        known = {f.name: f for f in fields(FaultConfig)}
        values: dict[str, object] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, raw = part.partition("=")
            key = key.strip()
            if not sep or key not in known:
                raise HarnessError(
                    f"bad --faults entry {part!r}; known keys: "
                    f"{', '.join(sorted(known))}"
                )
            try:
                if key in ("seed", "crash_after_calls", "flap_count"):
                    values[key] = int(raw)
                else:
                    values[key] = float(raw)
            except ValueError:
                raise HarnessError(
                    f"bad --faults value {raw!r} for {key}"
                ) from None
        return FaultConfig(**values)  # type: ignore[arg-type]
