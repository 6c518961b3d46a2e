"""``events_credited`` counts the events of the same run as ``events``.

The co-location entries report ``events`` for the co-location alone;
the events that run-ahead credited must be taken over the same run,
not also over the standalone baselines computed before it, so they
can never exceed it.
"""

import pytest

from repro.bench.macro import bench_colocation, bench_llm_serve


@pytest.mark.parametrize("bench", [bench_colocation, bench_llm_serve])
def test_credited_events_never_exceed_the_events(bench):
    result = bench("smoke")
    assert 0 < result.extra["events_credited"] <= result.events
