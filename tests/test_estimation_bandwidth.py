"""Per-connection bandwidth estimation (Eq. 2) and its defenses."""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.estimation.bandwidth import (
    BASE_RTT_HORIZON,
    MAX_CORRECTION_FACTOR,
    ConnectionEstimator,
)
from repro.rpc.logs import RoundTripEntry, RpcLog, ThroughputEntry


def rtt_entry(at, seconds):
    return RoundTripEntry(at, seconds, 100, 100)


def tput_entry(at, started, nbytes):
    return ThroughputEntry(at, started, nbytes, at - started)


def test_eq2_subtracts_dead_round_trip(sim):
    estimator = ConnectionEstimator(sim)
    log = RpcLog(sim, "c")
    estimator.on_round_trip(log, rtt_entry(0.0, 0.021))
    # 32 KiB that took 0.30 s: Eq. 2 recovers 32768 / (0.30 - 0.021).
    sample = estimator.bandwidth_sample(tput_entry(0.3, 0.0, 32768))
    assert sample == pytest.approx(32768 / (0.30 - 0.021))


def test_estimate_smoothed_with_gain(sim):
    estimator = ConnectionEstimator(sim)
    log = RpcLog(sim, "c")
    estimator.on_throughput(log, tput_entry(1.0, 0.0, 100_000))
    first = estimator.bandwidth
    estimator.on_throughput(log, tput_entry(3.0, 2.0, 50_000))
    expected = 0.875 * estimator.bandwidth_sample(tput_entry(3.0, 2.0, 50_000)) \
        + 0.125 * first
    assert estimator.bandwidth == pytest.approx(expected)


def test_correction_capped_at_twice_raw_rate(sim):
    estimator = ConnectionEstimator(sim)
    log = RpcLog(sim, "c")
    # A polluted round trip nearly as large as the window time.
    estimator.on_round_trip(log, rtt_entry(0.0, 0.29))
    sample = estimator.bandwidth_sample(tput_entry(0.3, 0.0, 3000))
    raw = 3000 / 0.3
    assert sample <= MAX_CORRECTION_FACTOR * raw + 1e-9


def test_base_rtt_is_windowed_minimum(sim):
    estimator = ConnectionEstimator(sim)
    log = RpcLog(sim, "c")
    sim.run(until=1.0)
    estimator.on_round_trip(log, rtt_entry(1.0, 0.020))
    sim.run(until=2.0)
    for _ in range(10):
        estimator.on_round_trip(log, rtt_entry(2.0, 0.200))  # congested
    assert estimator.base_round_trip == pytest.approx(0.020)
    # The smoothed estimate crept upward (rise-capped), the base did not.
    assert estimator.round_trip > 0.020


def test_base_rtt_forgets_stale_minimum(sim):
    estimator = ConnectionEstimator(sim)
    log = RpcLog(sim, "c")
    estimator.on_round_trip(log, rtt_entry(0.0, 0.010))
    sim.run(until=BASE_RTT_HORIZON + 5)
    estimator.on_round_trip(log, rtt_entry(sim.now, 0.050))
    assert estimator.base_round_trip == pytest.approx(0.050)


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.tuples(
        # Gaps between samples: bursts at one instant, and gaps longer
        # than the horizon that expire everything before them.
        st.one_of(st.just(0.0), st.floats(0, 5, allow_nan=False),
                  st.floats(BASE_RTT_HORIZON - 1, BASE_RTT_HORIZON + 1)),
        st.one_of(st.floats(1e-4, 2.0, allow_nan=False),
                  st.sampled_from([0.01, 0.02, 0.05])),
    ),
    min_size=1, max_size=60,
))
def test_base_rtt_equals_min_over_naive_window(samples):
    """The monotone window answers exactly ``min`` over every sample no
    older than the horizon at the latest sample."""
    from repro.sim.kernel import Simulator

    sim = Simulator()
    estimator = ConnectionEstimator(sim)
    log = RpcLog(sim, "c")
    naive = deque()
    assert estimator.base_round_trip == estimator.round_trip
    for gap, seconds in samples:
        sim.run(until=sim.now + gap)
        estimator.on_round_trip(log, rtt_entry(sim.now, seconds))
        naive.append((sim.now, seconds))
        while naive[0][0] < sim.now - BASE_RTT_HORIZON:
            naive.popleft()
        assert estimator.base_round_trip == min(s for _, s in naive)


def test_own_log_aggregation_counts_pipelined_windows(sim):
    estimator = ConnectionEstimator(sim)
    log = RpcLog(sim, "c")
    sim.run(until=1.0)
    # Two overlapping windows delivered 2 x 8 KiB during the same second.
    log.add_delivery(8192)
    log.add_delivery(8192)
    entry = tput_entry(1.0, 0.0, 8192)
    with_aggregation = estimator.bandwidth_sample(entry, log)
    without = estimator.bandwidth_sample(entry)
    assert with_aggregation == pytest.approx(2 * without)


def test_isolated_estimator_ignores_own_log(sim):
    estimator = ConnectionEstimator(sim, aggregate_own_log=False)
    log = RpcLog(sim, "c")
    sim.run(until=1.0)
    log.add_delivery(8192)
    log.add_delivery(8192)
    entry = tput_entry(1.0, 0.0, 8192)
    assert estimator.bandwidth_sample(entry, log) == pytest.approx(
        estimator.bandwidth_sample(entry)
    )


def test_eq2_rtt_mode_validation(sim):
    with pytest.raises(ValueError):
        ConnectionEstimator(sim, eq2_rtt="nonsense")


def test_smoothed_mode_uses_polluted_rtt(sim):
    base = ConnectionEstimator(sim, eq2_rtt="base")
    naive = ConnectionEstimator(sim, eq2_rtt="smoothed")
    log = RpcLog(sim, "c")
    for estimator in (base, naive):
        estimator.on_round_trip(log, rtt_entry(0.0, 0.020))
        for _ in range(20):
            estimator.on_round_trip(log, rtt_entry(0.0, 0.500))
    entry = tput_entry(1.0, 0.0, 32768)
    # The naive estimator subtracts a bigger R, inflating its sample.
    assert naive.bandwidth_sample(entry) > base.bandwidth_sample(entry)


def test_history_records_estimates(sim):
    estimator = ConnectionEstimator(sim)
    log = RpcLog(sim, "c")
    sim.run(until=2.0)
    estimator.on_throughput(log, tput_entry(2.0, 1.0, 10_000))
    assert len(estimator.history) == 1
    at, value = estimator.history[0]
    assert at == 2.0
    assert value == estimator.bandwidth
