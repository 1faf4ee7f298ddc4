"""Exact integration of transmissions across piecewise-constant rates."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.trace.integrate import (
    SegmentCursor,
    bytes_transferable,
    transmission_finish_time,
)
from repro.trace.replay import ReplayTrace, Segment


def flat(bandwidth, duration=100.0):
    return ReplayTrace([Segment(duration, bandwidth, 0.0)])


def test_constant_rate_exact():
    trace = flat(1000)
    assert transmission_finish_time(trace, 0.0, 500) == pytest.approx(0.5)
    assert transmission_finish_time(trace, 10.0, 1000) == pytest.approx(11.0)


def test_zero_bytes_finish_immediately():
    assert transmission_finish_time(flat(1000), 3.0, 0) == 3.0


def test_negative_bytes_rejected():
    with pytest.raises(ReproError):
        transmission_finish_time(flat(1000), 0.0, -1)


def test_straddles_step_transition_exactly():
    trace = ReplayTrace([Segment(10, 100, 0), Segment(10, 300, 0)])
    # 500 bytes at t=5: 5 s at 100 B/s -> 500 done exactly at t=10?  No:
    # 5 s x 100 = 500 bytes exactly at the boundary.
    assert transmission_finish_time(trace, 5.0, 500) == pytest.approx(10.0)
    # 800 bytes at t=5: 500 by t=10, remaining 300 at 300 B/s -> t=11.
    assert transmission_finish_time(trace, 5.0, 800) == pytest.approx(11.0)


def test_stalls_through_zero_bandwidth_segment():
    trace = ReplayTrace([
        Segment(10, 100, 0), Segment(10, 0, 0), Segment(10, 100, 0),
    ])
    # 1500 bytes at t=0: 1000 by t=10, stall to t=20, 500 more by t=25.
    assert transmission_finish_time(trace, 0.0, 1500) == pytest.approx(25.0)


def test_trace_ending_at_zero_never_finishes():
    trace = ReplayTrace([Segment(10, 100, 0), Segment(10, 0, 0)])
    assert math.isinf(transmission_finish_time(trace, 0.0, 2000))


def test_past_trace_end_holds_final_rate():
    trace = flat(100, duration=10)
    assert transmission_finish_time(trace, 0.0, 2000) == pytest.approx(20.0)
    assert transmission_finish_time(trace, 50.0, 100) == pytest.approx(51.0)


def test_bytes_transferable_basics():
    trace = ReplayTrace([Segment(10, 100, 0), Segment(10, 300, 0)])
    assert bytes_transferable(trace, 0, 10) == pytest.approx(1000)
    assert bytes_transferable(trace, 5, 15) == pytest.approx(500 + 1500)
    with pytest.raises(ReproError):
        bytes_transferable(trace, 10, 5)


@settings(max_examples=80, deadline=None)
@given(
    segments=st.lists(
        st.builds(
            Segment,
            duration=st.floats(min_value=0.5, max_value=20.0),
            bandwidth=st.floats(min_value=1.0, max_value=1e6),
            latency=st.just(0.0),
        ),
        min_size=1, max_size=6,
    ),
    start=st.floats(min_value=0.0, max_value=50.0),
    nbytes=st.integers(min_value=1, max_value=10**7),
)
def test_finish_time_inverts_bytes_transferable(segments, start, nbytes):
    """∫rate over [start, finish] equals nbytes (the two functions agree)."""
    trace = ReplayTrace(segments)
    finish = transmission_finish_time(trace, start, nbytes)
    transferred = bytes_transferable(trace, start, finish)
    assert transferred == pytest.approx(nbytes, rel=1e-6)


@settings(max_examples=50, deadline=None)
@given(
    bandwidth=st.floats(min_value=10.0, max_value=1e6),
    start=st.floats(min_value=0.0, max_value=10.0),
    nbytes=st.integers(min_value=1, max_value=10**6),
)
def test_finish_time_monotone_in_bytes(bandwidth, start, nbytes):
    trace = flat(bandwidth, duration=5.0)
    t_small = transmission_finish_time(trace, start, nbytes)
    t_large = transmission_finish_time(trace, start, nbytes * 2)
    assert t_large >= t_small >= start


@settings(max_examples=150, deadline=None)
@given(
    segments=st.lists(
        st.builds(
            Segment,
            duration=st.one_of(st.floats(min_value=0.1, max_value=5.0),
                               st.sampled_from([0.5, 1.0, 2.0])),
            bandwidth=st.sampled_from([0.0, 100.0, 1000.0, 3333.3]),
            latency=st.sampled_from([0.0, 0.01, 0.3]),
        ),
        min_size=1, max_size=6,
    ),
    queries=st.lists(
        st.tuples(st.one_of(st.floats(min_value=0.0, max_value=30.0),
                            st.integers(0, 60).map(lambda n: n / 2)),
                  st.integers(min_value=1, max_value=5000)),
        min_size=1, max_size=30,
    ),
    ordered=st.booleans(),
)
def test_cursor_lookups_equal_the_trace_walk(segments, queries, ordered):
    """With a cursor, finish times and latencies are bit-identical to the
    cursor-free lookups, whether start times rise (a link) or jump about;
    segment boundaries, stalls and the held final segment included."""
    trace = ReplayTrace(segments)
    cursor = SegmentCursor(trace)
    if ordered:
        queries = sorted(queries)
    for start, nbytes in queries:
        assert transmission_finish_time(trace, start, nbytes, cursor) \
            == transmission_finish_time(trace, start, nbytes)
        assert cursor.latency_at(start) == trace.latency_at(start)
