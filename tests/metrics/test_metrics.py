"""Tests for latency and throughput metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HarnessError
from repro.metrics import (
    LatencySummary,
    ThroughputSample,
    normalized_throughput,
    percentile,
    system_throughput,
)


class TestPercentile:
    def test_matches_numpy(self):
        data = [1.0, 2.0, 3.0, 10.0]
        assert percentile(data, 50) == pytest.approx(np.percentile(data, 50))

    def test_empty_rejected(self):
        with pytest.raises(HarnessError):
            percentile([], 50)

    def test_out_of_range_rejected(self):
        with pytest.raises(HarnessError):
            percentile([1.0], 101)

    # Bit-equality with np.percentile, which the pure-Python form
    # replaces (it would import numpy.ma inside a timed run).  Samples
    # are non-negative, as latencies are: -0.0 and 0.0 tie in both
    # sorts, which may order them differently.
    @given(st.lists(st.one_of(st.floats(min_value=0.0, max_value=1e9),
                              st.sampled_from([0.0, 1e-3, 0.5, 2.0])),
                    min_size=1, max_size=60),
           st.one_of(st.sampled_from([0, 50, 90, 99, 100]),
                     st.floats(min_value=0.0, max_value=100.0)))
    @settings(max_examples=300, deadline=None)
    def test_equals_numpy_bit_for_bit(self, samples, q):
        expected = np.percentile(np.asarray(samples, dtype=float), q)
        got = percentile(samples, q)
        assert type(got) is float
        assert np.float64(got).tobytes() == expected.tobytes()
        summary = LatencySummary.of(samples)
        for level, value in ((50, summary.p50), (90, summary.p90),
                             (99, summary.p99)):
            assert (np.float64(value).tobytes()
                    == np.percentile(samples, level).tobytes())

    @pytest.mark.parametrize("q", [0, 50, 90, 99, 100])
    def test_one_sample_and_duplicates(self, q):
        for samples in ([3.5], [2.0, 2.0, 2.0], [1.0, 4.0, 4.0, 4.0, 9.0]):
            assert percentile(samples, q) == np.percentile(samples, q)

    @given(st.lists(st.floats(min_value=0.0, max_value=1e3), max_size=20),
           st.integers(min_value=0, max_value=20),
           st.floats(min_value=0.0, max_value=100.0))
    @settings(max_examples=50, deadline=None)
    def test_a_nan_sample_gives_nan_as_numpy(self, samples, at, q):
        samples.insert(min(at, len(samples)), float("nan"))
        assert np.isnan(np.percentile(samples, q))
        assert np.isnan(percentile(samples, q))
        assert np.isnan(LatencySummary.of(samples).p99)


class TestLatencySummary:
    def test_of_computes_order_statistics(self):
        samples = list(range(1, 101))
        s = LatencySummary.of(samples)
        assert s.count == 100
        assert s.mean == pytest.approx(50.5)
        assert s.p50 == pytest.approx(50.5)
        assert s.max == 100

    def test_empty_rejected(self):
        with pytest.raises(HarnessError):
            LatencySummary.of([])

    def test_slowdown_and_overhead(self):
        base = LatencySummary.of([1.0] * 10)
        slow = LatencySummary.of([2.0] * 10)
        assert slow.slowdown_vs(base) == pytest.approx(2.0)
        assert slow.overhead_vs(base) == pytest.approx(1.0)

    @given(st.lists(st.floats(min_value=1e-6, max_value=100.0),
                    min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_invariants(self, samples):
        s = LatencySummary.of(samples)
        assert s.p50 <= s.p90 <= s.p99 <= s.max
        assert min(samples) <= s.mean <= s.max


class TestThroughput:
    def test_sample_rate(self):
        assert ThroughputSample(50, 10.0).rate == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(HarnessError):
            ThroughputSample(1, 0.0)
        with pytest.raises(HarnessError):
            ThroughputSample(-1, 1.0)

    def test_normalized(self):
        measured = ThroughputSample(40, 10.0)
        baseline = ThroughputSample(50, 10.0)
        assert normalized_throughput(measured, baseline) == pytest.approx(0.8)

    def test_normalized_rejects_zero_baseline(self):
        with pytest.raises(HarnessError):
            normalized_throughput(ThroughputSample(1, 1.0),
                                  ThroughputSample(0, 1.0))

    def test_system_throughput_sums(self):
        assert system_throughput({"a": 0.8, "b": 0.4}) == pytest.approx(1.2)

    def test_system_throughput_empty_rejected(self):
        with pytest.raises(HarnessError):
            system_throughput({})
