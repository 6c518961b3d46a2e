"""Property-based differential validation of the timing simulator.

Every helper is **seeded and deterministic**: a failing seed replays
the exact workload, so a divergence is a reproducible bug report, not
a flake.  Four independent oracles cross-check the simulator:

* **analytic** — a random kernel executed solo through the device must
  match the closed-form cost model on
  :class:`~repro.gpu.kernel.KernelDescriptor`
  (``duration`` / ``sliced_duration`` / ``ptb_duration``) to within
  float tolerance;
* **determinism** — the same seeded workload run twice through a policy
  produces bit-identical completion times, event counts, and
  utilization;
* **lower bound** — no kernel may ever finish faster than launch
  overhead plus its idle-device execution time, under any policy
  (sharing only adds delay — a faster result is an accounting bug);
* **conservation** — every kernel submitted to Tally or a baseline
  completes exactly once when the event queue drains.

Generated kernels use threads-per-block values that divide the per-SM
thread pool, where the device's flat resource pool and the per-SM
occupancy calculation agree exactly; mixed divisibility is a modelled
approximation, not a bug (see ``docs/validation.md``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from ..gpu.device import DeviceLaunch, GPUDevice
from ..gpu.engine import EventLoop
from ..gpu.kernel import KernelDescriptor, LaunchConfig, LaunchKind
from ..gpu.specs import A100_SXM4_40GB, GPUSpec
from ..harness.colocate import POLICY_NAMES, make_policy
from .invariants import InvariantChecker

__all__ = [
    "Divergence",
    "KernelRecord",
    "ValidationReport",
    "analytic_divergences",
    "conservation_divergences",
    "determinism_divergences",
    "lower_bound_divergences",
    "make_policy",
    "random_mix",
    "random_plan",
    "run_mix",
    "run_validation",
]

#: relative tolerance for float-exact comparisons (accumulated
#: floating-point addition over event times, nothing more)
REL_TOL = 1e-9

#: threads-per-block choices under which the device's flat pools equal
#: the per-SM occupancy model (divisors of 2048/1024-thread SMs)
TPB_CHOICES = (64, 128, 256, 512, 1024)


@dataclass(frozen=True)
class Divergence:
    """One disagreement between the simulator and an oracle."""

    kind: str  # "analytic" | "determinism" | "lower-bound" | "conservation"
    subject: str  # kernel / policy the divergence concerns
    expected: float
    actual: float
    tolerance: float
    seed: int | None = None

    def __str__(self) -> str:
        return (f"[{self.kind}] {self.subject}: expected {self.expected!r}, "
                f"got {self.actual!r} (tolerance {self.tolerance:g}, "
                f"seed {self.seed})")


@dataclass(frozen=True)
class KernelRecord:
    """Lifecycle of one kernel observed at the policy boundary."""

    client_id: str
    kernel: str
    descriptor: KernelDescriptor
    submitted_at: float
    completed_at: float

    @property
    def latency(self) -> float:
        return self.completed_at - self.submitted_at


def _checked_device(spec: GPUSpec, engine: EventLoop, *,
                    check: bool) -> GPUDevice:
    return GPUDevice(spec, engine,
                     check=InvariantChecker() if check else None)


# ---------------------------------------------------------------------------
# Analytic differential: device vs. the closed-form cost model
# ---------------------------------------------------------------------------

def random_plan(seed: int, spec: GPUSpec = A100_SXM4_40GB, *,
                max_kernels: int = 5) -> list[tuple[KernelDescriptor, str, int]]:
    """Seeded ``(descriptor, mode, param)`` execution plans.

    ``mode`` is ``original`` (param unused), ``ptb`` (param = worker
    count, within device capacity so workers place in one batch), or
    ``sliced`` (param = blocks per slice, dividing the block count so
    the closed-form per-slice time applies to every slice).
    """
    rng = random.Random(seed)
    plan: list[tuple[KernelDescriptor, str, int]] = []
    for i in range(rng.randint(1, max_kernels)):
        tpb = rng.choice(TPB_CHOICES)
        bd = rng.uniform(5e-6, 5e-4)
        mode = rng.choice(("original", "ptb", "sliced"))
        if mode == "sliced":
            per_slice = rng.randint(1, 2000)
            blocks = per_slice * rng.randint(1, 6)
            param = per_slice
        else:
            blocks = rng.randint(1, 6000)
            param = 0
        descriptor = KernelDescriptor(
            f"rand{i}", num_blocks=blocks, threads_per_block=tpb,
            block_duration=bd,
        )
        if mode == "ptb":
            cap = descriptor.capacity(spec)
            param = rng.randint(1, min(cap, blocks))
        plan.append((descriptor, mode, param))
    return plan


def analytic_divergences(seed: int, spec: GPUSpec = A100_SXM4_40GB, *,
                         check: bool = True) -> list[Divergence]:
    """Run a seeded plan solo through the device; compare to the model."""
    plan = random_plan(seed, spec)
    divergences: list[Divergence] = []
    engine = EventLoop()
    device = _checked_device(spec, engine, check=check)
    overhead = spec.kernel_launch_overhead

    measured: dict[int, float] = {}

    def run_entry(index: int) -> None:
        if index >= len(plan):
            return
        descriptor, mode, param = plan[index]
        started = engine.now

        def finish(_launch: DeviceLaunch) -> None:
            measured[index] = engine.now - started
            run_entry(index + 1)

        if mode == "ptb":
            device.submit(DeviceLaunch(
                descriptor, LaunchConfig(LaunchKind.PTB, workers=param),
                client_id="solo", on_complete=finish,
            ))
        elif mode == "sliced":
            def slice_at(offset: int) -> None:
                blocks = min(param, descriptor.num_blocks - offset)

                def slice_done(launch: DeviceLaunch) -> None:
                    nxt = offset + launch.total_blocks
                    if nxt >= descriptor.num_blocks:
                        finish(launch)
                    else:
                        slice_at(nxt)

                device.submit(DeviceLaunch(
                    descriptor, client_id="solo", blocks=blocks,
                    block_offset=offset, on_complete=slice_done,
                ))

            slice_at(0)
        else:
            device.submit(DeviceLaunch(
                descriptor, client_id="solo", on_complete=finish,
            ))

    run_entry(0)
    engine.run()

    for index, (descriptor, mode, param) in enumerate(plan):
        if mode == "ptb":
            expected = overhead + descriptor.ptb_duration(param)
        elif mode == "sliced":
            expected = descriptor.sliced_duration(spec, param)
        else:
            expected = overhead + descriptor.duration(spec)
        actual = measured.get(index, float("nan"))
        if not math.isclose(expected, actual, rel_tol=REL_TOL,
                            abs_tol=1e-12):
            divergences.append(Divergence(
                kind="analytic",
                subject=f"{descriptor.name}[{mode}]",
                expected=expected, actual=actual,
                tolerance=REL_TOL, seed=seed,
            ))
    return divergences


# ---------------------------------------------------------------------------
# Policy-level mixes: determinism, lower bounds, conservation
# ---------------------------------------------------------------------------

def random_mix(seed: int, spec: GPUSpec = A100_SXM4_40GB):
    """A seeded high-priority burst plus best-effort kernel chains.

    Returns ``(hp_arrivals, be_chains)`` where ``hp_arrivals`` is a
    list of ``(arrival_time, descriptor)`` and ``be_chains`` maps each
    best-effort client to its stream-ordered kernel list.
    """
    rng = random.Random(seed)
    hp_arrivals = []
    for i in range(rng.randint(0, 6)):
        hp_arrivals.append((
            rng.uniform(0.0, 4e-3),
            KernelDescriptor(
                f"hp{i}", num_blocks=rng.randint(8, 800),
                threads_per_block=rng.choice(TPB_CHOICES),
                block_duration=rng.uniform(1e-5, 2e-4),
            ),
        ))
    hp_arrivals.sort(key=lambda pair: pair[0])
    be_chains: dict[str, list[KernelDescriptor]] = {}
    for c in range(rng.randint(1, 3)):
        client = f"be{c}"
        be_chains[client] = [
            KernelDescriptor(
                f"{client}_k{i}", num_blocks=rng.randint(64, 20_000),
                threads_per_block=rng.choice(TPB_CHOICES),
                block_duration=rng.uniform(1e-5, 3e-4),
            )
            for i in range(rng.randint(1, 4))
        ]
    return hp_arrivals, be_chains


def run_mix(policy_name: str, seed: int, spec: GPUSpec = A100_SXM4_40GB, *,
            check: bool = True):
    """Run the seeded mix under a policy until the event queue drains.

    Returns ``(records, device, engine)``; ``records`` lists every
    kernel in completion order.
    """
    from ..baselines import Priority

    hp_arrivals, be_chains = random_mix(seed, spec)
    engine = EventLoop()
    device = _checked_device(spec, engine, check=check)
    policy = make_policy(policy_name, device, engine)
    records: list[KernelRecord] = []

    if hp_arrivals:
        policy.register_client("hp", Priority.HIGH)
    for client in be_chains:
        policy.register_client(client, Priority.BEST_EFFORT)

    def record(client: str, descriptor: KernelDescriptor,
               submitted: float) -> None:
        records.append(KernelRecord(
            client_id=client, kernel=descriptor.name,
            descriptor=descriptor, submitted_at=submitted,
            completed_at=engine.now,
        ))

    for arrival, descriptor in hp_arrivals:
        def submit_hp(descriptor=descriptor) -> None:
            submitted = engine.now
            policy.submit("hp", descriptor,
                          lambda: record("hp", descriptor, submitted))

        engine.schedule_at(arrival, submit_hp)

    def submit_chain(client: str, index: int) -> None:
        chain = be_chains[client]
        if index >= len(chain):
            return
        descriptor = chain[index]
        submitted = engine.now

        def done() -> None:
            record(client, descriptor, submitted)
            submit_chain(client, index + 1)

        policy.submit(client, descriptor, done)

    for client in be_chains:
        submit_chain(client, 0)
    engine.run()
    return records, device, engine


def _fingerprint(policy_name: str, seed: int, spec: GPUSpec, *,
                 check: bool):
    records, device, engine = run_mix(policy_name, seed, spec, check=check)
    times = tuple((r.client_id, r.kernel, r.completed_at) for r in records)
    return times, engine.events_processed, device.utilization()


def determinism_divergences(policy_name: str, seed: int,
                            spec: GPUSpec = A100_SXM4_40GB, *,
                            check: bool = True) -> list[Divergence]:
    """Two runs of the same seed must be bit-identical."""
    first = _fingerprint(policy_name, seed, spec, check=check)
    second = _fingerprint(policy_name, seed, spec, check=check)
    divergences: list[Divergence] = []
    if first[0] != second[0]:
        diverged = sum(1 for a, b in zip(first[0], second[0]) if a != b)
        divergences.append(Divergence(
            kind="determinism", subject=f"{policy_name}: completion times",
            expected=len(first[0]), actual=diverged,
            tolerance=0.0, seed=seed,
        ))
    if first[1] != second[1]:
        divergences.append(Divergence(
            kind="determinism", subject=f"{policy_name}: event count",
            expected=first[1], actual=second[1], tolerance=0.0, seed=seed,
        ))
    if first[2] != second[2]:
        divergences.append(Divergence(
            kind="determinism", subject=f"{policy_name}: utilization",
            expected=first[2], actual=second[2], tolerance=0.0, seed=seed,
        ))
    return divergences


def lower_bound_divergences(policy_name: str, seed: int,
                            spec: GPUSpec = A100_SXM4_40GB, *,
                            check: bool = True) -> list[Divergence]:
    """No kernel may beat launch overhead + its idle-device duration."""
    records, _device, _engine = run_mix(policy_name, seed, spec, check=check)
    divergences: list[Divergence] = []
    for r in records:
        bound = spec.kernel_launch_overhead + r.descriptor.duration(spec)
        if r.latency < bound * (1.0 - REL_TOL):
            divergences.append(Divergence(
                kind="lower-bound",
                subject=f"{policy_name}: {r.client_id}/{r.kernel}",
                expected=bound, actual=r.latency,
                tolerance=REL_TOL, seed=seed,
            ))
    return divergences


def conservation_divergences(policy_name: str, seed: int,
                             spec: GPUSpec = A100_SXM4_40GB, *,
                             check: bool = True) -> list[Divergence]:
    """Every submitted kernel completes exactly once."""
    hp_arrivals, be_chains = random_mix(seed, spec)
    submitted = len(hp_arrivals) + sum(len(c) for c in be_chains.values())
    records, _device, _engine = run_mix(policy_name, seed, spec, check=check)
    if len(records) != submitted:
        return [Divergence(
            kind="conservation", subject=f"{policy_name}: kernels completed",
            expected=submitted, actual=len(records),
            tolerance=0.0, seed=seed,
        )]
    return []


# ---------------------------------------------------------------------------
# Aggregate entry point
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    """Outcome of a multi-seed, multi-policy validation sweep."""

    seeds: tuple[int, ...]
    policies: tuple[str, ...]
    divergences: list[Divergence]
    invariant_checks: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences

    def format(self) -> str:
        if self.ok:
            return (f"validation OK: {len(self.seeds)} seeds x "
                    f"{len(self.policies)} policies, "
                    f"{self.invariant_checks} invariant checks, "
                    f"0 divergences")
        lines = [f"validation FAILED ({len(self.divergences)} divergences):"]
        lines += [f"  {d}" for d in self.divergences]
        return "\n".join(lines)


def _validate_seed(seed: int, policies, spec: GPUSpec):
    """Every oracle for one seed: ``(divergences, invariant_checks)``.

    Top-level (picklable) so :func:`run_validation` can fan seeds out
    over worker processes; each seed's workload is independent and
    internally deterministic, so the merged report is identical to a
    serial run.
    """
    divergences: list[Divergence] = []
    checks = 0
    divergences.extend(analytic_divergences(seed, spec))
    for policy_name in policies:
        divergences.extend(
            determinism_divergences(policy_name, seed, spec))
        divergences.extend(
            lower_bound_divergences(policy_name, seed, spec))
        divergences.extend(
            conservation_divergences(policy_name, seed, spec))
        _records, device, _engine = run_mix(policy_name, seed, spec)
        checks += device.check.checks_run
    return divergences, checks


def run_validation(seeds=(0, 1, 2), policies=POLICY_NAMES,
                   spec: GPUSpec = A100_SXM4_40GB, *,
                   jobs: int = 1) -> ValidationReport:
    """Run every oracle for every (seed, policy); collect divergences.

    ``jobs`` fans the seeds out over that many worker processes; the
    merged report is bit-identical to the serial one because each
    seed's oracles are self-contained and results are merged in seed
    order.
    """
    import functools

    from ..harness.sweep import pool_map

    seeds = tuple(seeds)
    policies = tuple(policies)
    per_seed = pool_map(functools.partial(_validate_seed, policies=policies,
                                          spec=spec), seeds, jobs=jobs)
    divergences: list[Divergence] = []
    checks = 0
    for seed_divergences, seed_checks in per_seed:
        divergences.extend(seed_divergences)
        checks += seed_checks
    return ValidationReport(
        seeds=seeds, policies=policies,
        divergences=divergences, invariant_checks=checks,
    )
