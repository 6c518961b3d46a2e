"""Determinism and draw-budget properties of the fault injector."""

from dataclasses import replace

import pytest

from repro.faults import FaultConfig, FaultInjector, NULL_INJECTOR


def drain(injector: FaultInjector, n: int = 200) -> list:
    """A fixed probe sequence mixing every kind of opportunity."""
    out = []
    for i in range(n):
        out.append(injector.channel_fault("request"))
        out.append(injector.channel_fault("response"))
        out.append(injector.kernel_fault())
        out.append(injector.lost_preempt_ack())
        out.append(injector.transform_fault(f"k{i % 7}", "ptb"))
    return out


CHAOS = FaultConfig(seed=13, drop=0.1, duplicate=0.1, corrupt=0.1,
                    delay=0.1, kernel_fault=0.2, transform_fail_rate=0.5,
                    lost_ack=0.3, slot_fault_rate=3.0)


class TestDeterminism:
    def test_same_seed_same_decisions(self):
        assert drain(FaultInjector(CHAOS)) == drain(FaultInjector(CHAOS))

    def test_different_seed_different_decisions(self):
        other = replace(CHAOS, seed=14)
        assert drain(FaultInjector(CHAOS)) != drain(FaultInjector(other))

    def test_slot_schedule_immune_to_other_draws(self):
        """Per-message draws must not shift the slot-fault schedule."""
        quiet = FaultInjector(CHAOS)
        noisy = FaultInjector(CHAOS)
        drain(noisy)
        assert quiet.slot_fault_times(5.0) == noisy.slot_fault_times(5.0)

    def test_slot_times_sorted_within_duration(self):
        times = FaultInjector(CHAOS).slot_fault_times(5.0)
        assert times == sorted(times)
        assert all(0 <= t < 5.0 for t in times)
        assert times  # rate 3/s over 5 s: statistically certain


class TestDrawBudget:
    def test_disabled_faults_consume_no_randomness(self):
        """All-zero rates must not touch the RNG (byte-identical runs)."""
        injector = FaultInjector(FaultConfig(seed=1))
        before = injector._rng.getstate()
        drain(injector, n=50)
        assert injector._rng.getstate() == before

    def test_channel_fault_one_draw_regardless_of_rates(self):
        one = FaultInjector(FaultConfig(seed=5, drop=0.01))
        many = FaultInjector(FaultConfig(seed=5, drop=0.01, duplicate=0.01,
                                         corrupt=0.01, delay=0.01))
        for _ in range(100):
            one.channel_fault("request")
            many.channel_fault("request")
        assert one._rng.getstate() == many._rng.getstate()


class TestSemantics:
    def test_transform_fault_memoized_per_kernel_mode(self):
        injector = FaultInjector(FaultConfig(seed=3,
                                             transform_fail_rate=0.5))
        first = {(k, m): injector.transform_fault(k, m)
                 for k in "abcdef" for m in ("ptb", "sliced")}
        for (k, m), verdict in first.items():
            assert injector.transform_fault(k, m) is verdict
        assert injector.injected["transform_fault"] == sum(
            first.values())  # counted once per (kernel, mode), not per ask

    def test_crash_fires_at_exact_call_index(self):
        injector = FaultInjector(FaultConfig(crash_after_calls=3))
        assert [injector.crash_now() for _ in range(5)] == [
            False, False, False, True, True]
        assert injector.injected["client_crash"] == 2

    def test_injected_counts_by_kind(self):
        injector = FaultInjector(FaultConfig(seed=2, drop=1.0))
        injector.channel_fault("request")
        injector.channel_fault("response")
        assert injector.injected["request_drop"] == 1
        assert injector.injected["response_drop"] == 1


class TestNullInjector:
    def test_disabled_and_silent(self):
        assert NULL_INJECTOR.enabled is False
        assert NULL_INJECTOR.channel_fault("request") == "none"
        assert NULL_INJECTOR.crash_now() is False
        assert NULL_INJECTOR.kernel_fault() is False
        assert NULL_INJECTOR.transform_fault("k", "ptb") is False
        assert NULL_INJECTOR.lost_preempt_ack() is False
        assert NULL_INJECTOR.slot_fault_times(10.0) == []
        assert not NULL_INJECTOR.injected


class TestExtremeFlapping:
    """Flap cycles far faster than any control-plane reaction time."""

    EXTREME = FaultConfig(seed=7, device_flap_rate=2.0, flap_count=25,
                          flap_period=0.01)

    def test_schedule_is_bounded_ordered_and_alternating(self):
        schedule = FaultInjector(self.EXTREME).device_fault_schedule(
            0, 3.0)
        assert schedule  # an extreme rate must actually produce bursts
        times = [e.time for e in schedule]
        assert times == sorted(times)
        assert all(0 <= t <= 3.0 for t in times)
        assert all(e.flapping for e in schedule)
        # each burst alternates degrade/recover, never two of a kind
        kinds = [e.kind for e in schedule]
        for a, b in zip(kinds, kinds[1:]):
            assert (a, b) in (("degrade", "recover"),
                              ("recover", "degrade"))
        assert FaultInjector(self.EXTREME).device_fault_schedule(
            0, 3.0) == schedule

    @pytest.mark.slow
    def test_quarantine_converges_and_conservation_holds(self):
        """A device flapping every 10ms must be quarantined exactly
        once (not re-quarantined per cycle), and no request may be
        lost in the proactive migrations it triggers."""
        from repro.cluster import ClusterController, ClusterJob
        from repro.harness import RunConfig

        jobs = [ClusterJob("bert_infer", load=0.3, traffic_seed=0),
                ClusterJob("resnet50_train", traffic_seed=1)]
        controller = ClusterController(
            jobs, 2, config=RunConfig(duration=3.0, warmup=0.5),
            faults=self.EXTREME, check=True)
        result = controller.run()  # check=True audits conservation
        flapped = [s for s in controller.shards
                   if s.flap_transitions >= controller.flap_threshold]
        assert flapped  # the storm of cycles tripped the threshold
        for shard in flapped:
            assert not shard.accepting   # fenced off, and it stays off
            assert shard.alive           # quarantined, not crashed
        assert result.recovery.device_faults["device_degrade"] > 10
        assert result.invariant_checks > 0
