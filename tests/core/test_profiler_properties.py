"""The per-descriptor profiler record decides exactly as a
``(descriptor, config)``-keyed dictionary does.

:class:`ReferenceProfiler` keeps the dictionary-backed ``choose`` and
``best_known`` verbatim.  Random operation sequences — equal
``(duration, turnaround)`` ties, tables where nothing meets the bound,
records for configurations outside the candidate list, prewarm on and
off — must give the same ``(config, profiling)`` answers and the same
``profiling_runs``/``decisions`` counts from both.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TallyConfig
from repro.core.candidates import (
    ORIGINAL_CONFIG,
    SchedConfig,
    SchedKind,
    generate_candidates,
)
from repro.core.profiler import Measurement, TransparentProfiler
from repro.gpu import A100_SXM4_40GB, KernelDescriptor

SPEC = A100_SXM4_40GB


class ReferenceProfiler:
    """The dictionary-backed profiler: every candidate lookup hashes a
    ``(descriptor, config)`` pair."""

    def __init__(self, spec, config):
        self.spec = spec
        self.config = config
        self._candidates = {}
        self._measurements = {}
        self._prewarmed = set()
        self.profiling_runs = 0
        self.decisions = 0

    def prewarm(self, descriptor):
        if descriptor in self._prewarmed:
            return
        self._prewarmed.add(descriptor)
        for candidate in self.candidates(descriptor):
            key = (descriptor, candidate)
            if key in self._measurements:
                continue
            if candidate.kind is SchedKind.SLICED:
                turnaround = descriptor.slice_duration(
                    self.spec, candidate.blocks_per_slice)
                duration = descriptor.sliced_duration(
                    self.spec, candidate.blocks_per_slice)
            elif candidate.kind is SchedKind.PTB:
                turnaround = descriptor.ptb_iteration_duration()
                duration = descriptor.ptb_duration(candidate.workers)
            else:
                turnaround = descriptor.duration(self.spec)
                duration = turnaround
            self._measurements[key] = Measurement(turnaround, duration)

    def candidates(self, descriptor):
        cached = self._candidates.get(descriptor)
        if cached is None:
            cached = generate_candidates(descriptor, self.spec, self.config)
            self._candidates[descriptor] = cached
        return cached

    def record(self, descriptor, config, turnaround, duration):
        key = (descriptor, config)
        existing = self._measurements.get(key)
        if existing is None:
            self._measurements[key] = Measurement(turnaround, duration)
        else:
            existing.update(turnaround, duration)

    def choose(self, descriptor):
        if self.config.prewarm_profiles:
            self.prewarm(descriptor)
        candidates = self.candidates(descriptor)
        for candidate in candidates:
            if (descriptor, candidate) not in self._measurements:
                self.profiling_runs += 1
                return candidate, True

        self.decisions += 1
        bound = self.config.turnaround_latency_bound
        feasible = []
        fallback = []
        for candidate in candidates:
            m = self._measurements[(descriptor, candidate)]
            fallback.append((m.turnaround, m.duration, candidate))
            if m.turnaround <= bound:
                feasible.append((m.duration, m.turnaround, candidate))
        if feasible:
            return min(feasible, key=lambda item: item[:2])[2], False
        best_turnaround = min(item[0] for item in fallback)
        pool = [item for item in fallback
                if item[0] <= 2.0 * best_turnaround]
        return min(pool, key=lambda item: (item[1], item[0]))[2], False

    def best_known(self, descriptor):
        candidates = self.candidates(descriptor)
        measured = [
            c for c in candidates
            if (descriptor, c) in self._measurements
        ]
        if not measured:
            return candidates[0] if candidates else ORIGINAL_CONFIG
        bound = self.config.turnaround_latency_bound
        feasible = [
            c for c in measured
            if self._measurements[(descriptor, c)].turnaround <= bound
        ]
        if feasible:
            return min(feasible, key=lambda c: (
                self._measurements[(descriptor, c)].duration,
                self._measurements[(descriptor, c)].turnaround,
            ))
        best_turnaround = min(
            self._measurements[(descriptor, c)].turnaround
            for c in measured
        )
        pool = [
            c for c in measured
            if self._measurements[(descriptor, c)].turnaround
            <= 2.0 * best_turnaround
        ]
        return min(pool, key=lambda c: (
            self._measurements[(descriptor, c)].duration,
            self._measurements[(descriptor, c)].turnaround,
        ))


DESCRIPTORS = [
    KernelDescriptor("k", num_blocks=5000, threads_per_block=256,
                     block_duration=50e-6),
    # same name, other geometry: its own record
    KernelDescriptor("k", num_blocks=640, threads_per_block=512,
                     block_duration=20e-6),
    # too small to subdivide: ORIGINAL is its only candidate
    KernelDescriptor("tiny", num_blocks=1, threads_per_block=128,
                     block_duration=5e-6),
]

#: a handful of values, so equal ``(duration, turnaround)`` pairs and
#: exact ties at the bound and at 2x the best turnaround are common
VALUES = [0.0, 1e-4, 2e-4, 4e-4, 1e-3]

#: configurations outside some descriptor's candidate list
OUTSIDE = [ORIGINAL_CONFIG, SchedConfig(SchedKind.SLICED, blocks_per_slice=3),
           SchedConfig(SchedKind.PTB, workers=7)]

operation = st.one_of(
    # measure every candidate at once: whole tables with ties
    st.tuples(st.just("fill"), st.integers(0, 2),
              st.lists(st.tuples(st.sampled_from(VALUES),
                                 st.sampled_from(VALUES)),
                       min_size=10, max_size=10)),
    st.tuples(st.just("choose"), st.integers(0, 2)),
    st.tuples(st.just("best_known"), st.integers(0, 2)),
    st.tuples(st.just("prewarm"), st.integers(0, 2)),
    # record a candidate (by position) or an outside configuration
    st.tuples(st.just("record"), st.integers(0, 2), st.integers(0, 12),
              st.sampled_from(VALUES), st.sampled_from(VALUES)),
    st.tuples(st.just("record-outside"), st.integers(0, 2),
              st.sampled_from(OUTSIDE), st.sampled_from(VALUES),
              st.sampled_from(VALUES)),
)


@pytest.mark.slow
@given(prewarm=st.booleans(),
       bound=st.sampled_from([1e-9, 1e-4, 2e-4, 5e-4, 1.0]),
       ops=st.lists(operation, max_size=60))
@settings(max_examples=200, deadline=None)
def test_record_per_descriptor_matches_reference(prewarm, bound, ops):
    config = TallyConfig(prewarm_profiles=prewarm,
                         turnaround_latency_bound=bound)
    fast = TransparentProfiler(SPEC, config)
    reference = ReferenceProfiler(SPEC, config)
    for op in ops:
        k = DESCRIPTORS[op[1]]
        if op[0] == "choose":
            assert fast.choose(k) == reference.choose(k)
        elif op[0] == "best_known":
            assert fast.best_known(k) == reference.best_known(k)
        elif op[0] == "fill":
            for config_, (turnaround, duration) in zip(
                    reference.candidates(k), op[2]):
                fast.record(k, config_, turnaround, duration)
                reference.record(k, config_, turnaround, duration)
        elif op[0] == "prewarm":
            fast.prewarm(k)
            reference.prewarm(k)
        else:
            if op[0] == "record":
                candidates = reference.candidates(k)
                config_ = candidates[op[2] % len(candidates)]
            else:
                config_ = op[2]
            fast.record(k, config_, op[3], op[4])
            reference.record(k, config_, op[3], op[4])
        assert fast.profiling_runs == reference.profiling_runs
        assert fast.decisions == reference.decisions
    for k in DESCRIPTORS:
        assert fast.best_known(k) == reference.best_known(k)
        for config_ in reference.candidates(k) + OUTSIDE:
            got = fast.lookup(k, config_)
            want = reference._measurements.get((k, config_))
            assert (got is None) == (want is None)
            if got is not None:
                assert (got.turnaround, got.duration, got.samples) == (
                    want.turnaround, want.duration, want.samples)
