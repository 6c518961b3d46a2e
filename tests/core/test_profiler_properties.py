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


# ---------------------------------------------------------------------------
# The standing verdict: TransparentProfiler keeps _select's last verdict
# on the descriptor's record and ranks the candidates again only after a
# record that may have changed the ranking (_Profile.revise).  A
# cache-free _select over the same measurements must agree after every
# operation.

def fresh_select(profile, bound):
    """``_select`` without a verdict: rank the measured candidates."""

    def fastest(limit):
        best = best_key = None
        for candidate, m in zip(profile.candidates, profile.measured):
            if m is not None and m.turnaround <= limit:
                key = (m.duration, m.turnaround)
                if best_key is None or key < best_key:
                    best, best_key = candidate, key
        return best

    best = fastest(bound)
    if best is None:
        best = fastest(2.0 * min(m.turnaround for m in profile.measured
                                 if m is not None))
    return best


def fresh_pick(profiler, descriptor):
    """What ``pick`` returns, decided from scratch."""
    profile = profiler._profiles.get(descriptor)
    if profile is None or profile.unmeasured:
        if profiler.config.prewarm_profiles:
            return None  # pick prewarms first; compared after it
        candidates = (profile.candidates if profile is not None else
                      generate_candidates(descriptor, SPEC,
                                          profiler.config))
        measured = (profile.measured if profile is not None
                    else [None] * len(candidates))
        for candidate, m in zip(candidates, measured):
            if m is None:
                return candidate, True
    return fresh_select(profile, profiler.config.turnaround_latency_bound), \
        False


#: scale factors of a sample relative to a candidate's current values:
#: 1.0 leaves the EWMA where it is, the others move it a little or a lot
FACTORS = [0.5, 0.9, 1.0, 1.1, 2.0]

verdict_operation = st.one_of(
    st.tuples(st.just("pick"), st.integers(0, 2)),
    st.tuples(st.just("choose"), st.integers(0, 2)),
    st.tuples(st.just("best_known"), st.integers(0, 2)),
    st.tuples(st.just("prewarm"), st.integers(0, 2)),
    # measure every candidate at once: tables with exact key ties
    st.tuples(st.just("fill"), st.integers(0, 2),
              st.lists(st.tuples(st.sampled_from(VALUES),
                                 st.sampled_from(VALUES)),
                       min_size=10, max_size=10)),
    # what runs in practice: the winner's own next sample
    st.tuples(st.just("record-winner"), st.integers(0, 2),
              st.sampled_from(FACTORS), st.sampled_from(FACTORS)),
    # any candidate, scaled from its current values or set outright
    st.tuples(st.just("record-scaled"), st.integers(0, 2),
              st.integers(0, 12), st.sampled_from(FACTORS),
              st.sampled_from(FACTORS)),
    st.tuples(st.just("record"), st.integers(0, 2), st.integers(0, 12),
              st.sampled_from(VALUES), st.sampled_from(VALUES)),
    # a degraded execution records a rung outside the candidate list
    st.tuples(st.just("record-outside"), st.integers(0, 2),
              st.sampled_from(OUTSIDE), st.sampled_from(VALUES),
              st.sampled_from(VALUES)),
)


@pytest.mark.slow
@given(prewarm=st.booleans(),
       bound=st.sampled_from([1e-9, 1e-4, 2e-4, 5e-4, 1.0]),
       ops=st.lists(verdict_operation, max_size=60))
@settings(max_examples=150, deadline=None)
def test_standing_verdict_matches_a_fresh_select(prewarm, bound, ops):
    config = TallyConfig(prewarm_profiles=prewarm,
                         turnaround_latency_bound=bound)
    profiler = TransparentProfiler(SPEC, config)
    runs = decisions = 0
    for op in ops:
        k = DESCRIPTORS[op[1]]
        profile = profiler._profiles.get(k)
        if op[0] in ("pick", "choose"):
            want = fresh_pick(profiler, k)
            got = (profiler.pick(k) if op[0] == "pick"
                   else profiler.choose(k))
            if want is None:  # prewarmed just now
                want = fresh_pick(profiler, k)
            assert got == want
            if op[0] == "choose":
                runs += got[1]
                decisions += not got[1]
        elif op[0] == "best_known":
            profiler.best_known(k)
        elif op[0] == "prewarm":
            profiler.prewarm(k)
        elif op[0] == "fill":
            for config_, (turnaround, duration) in zip(
                    profiler.candidates(k), op[2]):
                profiler.record(k, config_, turnaround, duration)
        elif op[0] in ("record-winner", "record-scaled"):
            if profile is None or profile.unmeasured:
                continue
            if op[0] == "record-winner":
                config_ = fresh_select(profile, bound)
                scale_t, scale_d = op[2], op[3]
            else:
                config_ = profile.candidates[op[2] % len(profile.candidates)]
                scale_t, scale_d = op[3], op[4]
            m = profile.by_config[config_]
            profiler.record(k, config_, m.turnaround * scale_t,
                            m.duration * scale_d)
        elif op[0] == "record":
            candidates = profiler.candidates(k)
            profiler.record(k, candidates[op[2] % len(candidates)],
                            op[3], op[4])
        else:
            profiler.record(k, op[2], op[3], op[4])
        assert (profiler.profiling_runs, profiler.decisions) == (runs,
                                                                decisions)
        # the standing verdict of every fully measured record, now
        for profile in profiler._profiles.values():
            if not profile.unmeasured:
                assert profiler._select(profile) == fresh_select(profile,
                                                                 bound)


def _profiler_with(bound, table):
    """A profiler whose first descriptor's candidates hold ``table``'s
    ``(turnaround, duration)`` pairs, ranked once."""
    profiler = TransparentProfiler(
        SPEC, TallyConfig(prewarm_profiles=False,
                          turnaround_latency_bound=bound))
    k = DESCRIPTORS[0]
    for config_, (turnaround, duration) in zip(profiler.candidates(k),
                                               table):
        profiler.record(k, config_, turnaround, duration)
    return profiler, k, profiler._profiles[k]


@pytest.mark.parametrize("bound", [1e-3, 1e-9], ids=["strict", "relaxed"])
def test_the_winners_own_samples_keep_the_verdict(bound, monkeypatch):
    """Samples that keep the winner ahead of the runner-up (and, under a
    relaxed verdict, leave the least turnaround where it is) never rank
    the candidates again; one that passes it does, once."""
    # candidate 1 wins on duration; candidate 0 holds the least
    # turnaround, so a relaxed verdict's bound does not move
    table = [(1e-4, 9e-3)] + [(2e-4, 1e-3 * (i + 1)) for i in range(9)]
    profiler, k, profile = _profiler_with(bound, table)
    ranked = []
    fastest = TransparentProfiler._fastest
    monkeypatch.setattr(TransparentProfiler, "_fastest", staticmethod(
        lambda p, strict: ranked.append(p) or fastest(p, strict)))
    winner = profiler.pick(k)[0]
    assert winner == profile.candidates[1]
    assert profile.relaxed is (bound == 1e-9)
    for duration in (1.1e-3, 0.9e-3, 1.5e-3, 1e-3):
        profiler.record(k, winner, 2e-4, duration)
        assert profiler.pick(k)[0] == winner
    assert len(ranked) == 1
    # the runner-up (candidate 2, 2e-3) is passed
    profiler.record(k, winner, 2e-4, 1e-2)
    profiler.record(k, winner, 2e-4, 1e-2)
    assert profiler.pick(k)[0] == fresh_select(profile, bound)
    assert len(ranked) == 2


def _table(size, entries, rest=(0.5, 0.5)):
    """``size`` ``(turnaround, duration)`` pairs: ``entries`` maps a
    candidate position to its pair, the rest get ``rest``."""
    return [entries.get(i, rest) for i in range(size)]


@pytest.mark.parametrize("winner,runner", [(3, 1), (1, 3)])
def test_an_exact_key_tie_goes_to_candidate_order(winner, runner):
    """The winner's sample lands exactly on the runner-up's key: the
    earlier candidate wins the tie, as a fresh ranking decides it."""
    k = DESCRIPTORS[0]
    size = len(TransparentProfiler(SPEC, TallyConfig()).candidates(k))
    sample = (3e-4, 7e-4)
    # an EWMA step from 0.0 lands on exactly 0.3 * sample
    tied = (0.3 * sample[0], 0.3 * sample[1])
    profiler, k, profile = _profiler_with(
        1.0, _table(size, {winner: (0.0, 0.0), runner: tied}))
    assert profiler.pick(k)[0] == profile.candidates[winner]
    profiler.record(k, profile.candidates[winner], *sample)
    m = profile.measured[winner]
    assert (m.turnaround, m.duration) == tied
    assert profiler.pick(k)[0] == profile.candidates[min(winner, runner)]
    assert profiler.pick(k)[0] == fresh_select(profile, 1.0)


def test_a_relaxed_bound_that_moves_drops_the_verdict():
    """Nothing meets the turnaround bound and the winner holds the least
    turnaround: its slower sample still qualifies, but it raises the
    bound (twice the least), and a candidate that bound kept out now
    qualifies and wins."""
    k = DESCRIPTORS[0]
    size = len(TransparentProfiler(SPEC, TallyConfig()).candidates(k))
    profiler, k, profile = _profiler_with(
        1e-9, _table(size, {1: (1e-4, 1e-3)}, rest=(2.5e-4, 5e-4)))
    assert profiler.pick(k)[0] == profile.candidates[1]
    profiler.record(k, profile.candidates[1], 2.6e-4, 1e-3)
    assert profile.measured[1].turnaround <= 2e-4
    assert profiler.pick(k)[0] == profile.candidates[0]
    assert profiler.pick(k)[0] == fresh_select(profile, 1e-9)


def test_a_runner_up_that_falls_back_drops_the_verdict():
    """The runner-up's slower sample lets a third candidate pass it; the
    winner's next sample then lands between the two and loses to the
    third, as a fresh ranking decides."""
    k = DESCRIPTORS[0]
    size = len(TransparentProfiler(SPEC, TallyConfig()).candidates(k))
    profiler, k, profile = _profiler_with(1.0, _table(size, {
        0: (1e-4, 1e-3), 1: (1e-4, 2e-3), 2: (1e-4, 3e-3)},
        rest=(1e-4, 1.0)))
    assert profiler.pick(k)[0] == profile.candidates[0]
    profiler.record(k, profile.candidates[1], 1e-4, 1e-2)
    assert profiler.pick(k)[0] == profile.candidates[0]
    profiler.record(k, profile.candidates[0], 1e-4, 9.4e-3)
    assert 3e-3 < profile.measured[0].duration < profile.measured[1].duration
    assert profiler.pick(k)[0] == profile.candidates[2]
    assert profiler.pick(k)[0] == fresh_select(profile, 1.0)
