"""The shard-wide delivery index against the per-log share formulas.

:class:`ClientShares` answers every aggregate and usage query from one
incrementally maintained index.  The reference model below is the
per-log arithmetic it replaced — every connection's log queried on every
throughput entry and availability call — and the two must agree exactly
(``==`` on floats) under any interleaving of deliveries, time advances,
throughput entries and membership churn, including windows longer than
the logs' retained history.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.estimation.bandwidth import MIN_EFFECTIVE_SECONDS, ConnectionEstimator
from repro.estimation.ewma import EwmaFilter
from repro.estimation.share import ClientShares
from repro.rpc.logs import DELIVERY_HISTORY_SECONDS, RpcLog
from repro.sim.kernel import Simulator


class ReferenceShares:
    """The per-log formulas: every query walks every registered log."""

    def __init__(self, sim, usage_horizon, competing_horizon,
                 competing_rate_floor, fair_fraction=0.25, gain=0.875):
        self.sim = sim
        self.usage_horizon = usage_horizon
        self.competing_horizon = competing_horizon
        self.competing_rate_floor = competing_rate_floor
        self.fair_fraction = fair_fraction
        self.total_filter = EwmaFilter(gain)
        self.logs = {}
        self.estimators = {}

    def register(self, log):
        self.logs[log.connection_id] = log
        self.estimators[log.connection_id] = ConnectionEstimator(
            self.sim, log.connection_id)

    def unregister(self, connection_id):
        del self.logs[connection_id]
        del self.estimators[connection_id]

    def absorb(self, log, entry):
        estimator = self.estimators[log.connection_id]
        estimator.on_throughput(log, entry)
        aggregate = 0
        competing = False
        for other in self.logs.values():
            aggregate += other.bytes_delivered_between(entry.started, entry.at)
            if (other is not log and other.recent_rate(self.competing_horizon)
                    > self.competing_rate_floor):
                competing = True
        aggregate = max(aggregate, entry.nbytes)
        aggregate_raw = aggregate / max(entry.seconds, MIN_EFFECTIVE_SECONDS)
        if competing:
            sample = aggregate_raw
        else:
            sample = max(estimator.bandwidth_sample(entry, log), aggregate_raw)
        return self.total_filter.update(sample), sample, competing

    def usage(self, connection_id):
        return self.logs[connection_id].recent_rate(self.usage_horizon)

    def availability(self, connection_id):
        total = self.total_filter.value
        if total is None:
            return None
        n = len(self.logs)
        fair = self.fair_fraction * total / n
        usages = {cid: self.usage(cid) for cid in self.logs}
        denominator = sum(usages.values())
        if denominator <= 0:
            weight = 1.0 / n
        else:
            weight = usages[connection_id] / denominator
        competed = (1.0 - self.fair_fraction) * total * weight
        return fair + competed


POOL = 4

operations = st.one_of(
    st.tuples(st.just("deliver"), st.integers(0, POOL - 1),
              st.integers(1, 200_000)),
    st.tuples(st.just("advance"),
              st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0, 8.0, 12.5, 31.0])),
    st.tuples(st.just("throughput"), st.integers(0, POOL - 1),
              st.sampled_from([0.0, 0.5, 3.0, 8.0, DELIVERY_HISTORY_SECONDS,
                               45.0]),
              st.integers(1, 200_000)),
    st.tuples(st.just("round_trip"), st.integers(0, POOL - 1),
              st.sampled_from([0.01, 0.2, 1.0])),
    st.tuples(st.just("toggle"), st.integers(0, POOL - 1)),
)

configs = st.fixed_dictionaries({
    # Powers of two take the byte-total denominator; the rest keep the
    # registration-order sum.
    "usage_horizon": st.sampled_from([8.0, 4.0, 3.0, 5.5,
                                      DELIVERY_HISTORY_SECONDS]),
    "competing_horizon": st.sampled_from([3.0, 0.5, 8.0,
                                          DELIVERY_HISTORY_SECONDS]),
    "competing_rate_floor": st.sampled_from([0.0, 1024.0, 50_000.0]),
})


DEFAULTS = {"usage_horizon": 8.0, "competing_horizon": 3.0,
            "competing_rate_floor": 1024.0}


@settings(max_examples=300, deadline=None)
@given(config=configs, ops=st.lists(operations, max_size=80))
# A delivery exactly one horizon old has left it (half-open window).
@example(config=DEFAULTS, ops=[("deliver", 0, 5000), ("advance", 8.0)])
@example(config=DEFAULTS, ops=[("deliver", 1, 5000), ("advance", 3.0),
                               ("throughput", 0, 0.5, 100)])
# A window longer than the history: the log pruned its old bytes.
@example(config=DEFAULTS, ops=[("deliver", 0, 100_000), ("advance", 31.0),
                               ("deliver", 0, 10),
                               ("throughput", 0, 45.0, 1)])
# A non-power-of-two horizon sums usages in registration order:
# 1000/5.5 + 100003/5.5 != 101003/5.5.
@example(config={**DEFAULTS, "usage_horizon": 5.5},
         ops=[("deliver", 0, 1000), ("deliver", 1, 100_003),
              ("throughput", 2, 0.5, 100)])
def test_index_matches_per_log_formulas(config, ops):
    sim = Simulator()
    shares = ClientShares(sim, **config)
    reference = ReferenceShares(sim, **config)
    logs = [RpcLog(sim, f"c{i}") for i in range(POOL)]
    registered = set()
    for log in logs:  # start with every log tracked; toggles churn them
        registered.add(log.connection_id)
        shares.register(log)
        reference.register(log)

    def check():
        assert shares.total == reference.total_filter.value
        for cid in sorted(registered):
            assert shares.usage(cid) == reference.usage(cid)
            assert shares.availability(cid) == reference.availability(cid)

    for op in ops:
        kind = op[0]
        if kind == "deliver":
            logs[op[1]].add_delivery(op[2])
        elif kind == "advance":
            sim.run(until=sim.now + op[1])
        elif kind == "round_trip":
            log = logs[op[1]]
            entry = log.add_round_trip(op[2], 256, 64)
            if log.connection_id in registered:
                shares.on_round_trip(log, entry)
                reference.estimators[log.connection_id].on_round_trip(
                    log, entry)
        elif kind == "throughput":
            log = logs[op[1]]
            if log.connection_id not in registered:
                continue
            entry = log.add_throughput(sim.now - op[2], op[3])
            assert shares._absorb_throughput(log, entry) \
                == reference.absorb(log, entry)
        else:  # toggle: unregister, or (re-)register the same log object
            log = logs[op[1]]
            if log.connection_id in registered:
                registered.discard(log.connection_id)
                shares.unregister(log.connection_id)
                reference.unregister(log.connection_id)
            else:
                registered.add(log.connection_id)
                shares.register(log)
                reference.register(log)
        check()


def test_reregistered_log_keeps_its_own_history():
    """Unregister then re-register under the same id: the fresh counters
    must hold exactly the log's retained bytes, never a stale remainder."""
    sim = Simulator()
    shares = ClientShares(sim)
    a, b = RpcLog(sim, "a"), RpcLog(sim, "b")
    shares.register(a)
    shares.register(b)
    a.add_delivery(4000)
    b.add_delivery(1000)
    sim.run(until=1.0)
    shares.unregister("a")
    a.add_delivery(2000)  # arrives while a is not tracked
    sim.run(until=2.0)
    shares.register(a)
    entry = b.add_throughput(0.5, 1000)
    shares.on_throughput(b, entry)
    assert shares.usage("a") == 6000 / shares.usage_horizon
    assert shares.usage("b") == 1000 / shares.usage_horizon
    assert shares.availability("a") > shares.availability("b") > 0


def test_long_run_with_compaction_matches_reference():
    """Enough deliveries to trim the index's dead prefix many times, with
    queries both frequent and rare (the catch-up path prunes between)."""
    sim = Simulator()
    config = {"usage_horizon": 8.0, "competing_horizon": 3.0,
              "competing_rate_floor": 20_000.0}
    shares = ClientShares(sim, **config)
    reference = ReferenceShares(sim, **config)
    logs = [RpcLog(sim, f"c{i}") for i in range(3)]
    for log in logs:
        shares.register(log)
        reference.register(log)
    for step in range(30_000):
        sim.run(until=(step + 1) * 0.01)
        log = logs[step % 3 if step % 7 else 0]
        # Each peer's rate drifts across the competing floor and back.
        log.add_delivery(1 + (step // 700 % 4) * 300 + step % 200)
        # Quiet spells: no queries at all for 9000 deliveries at a time.
        if 9_000 <= step < 18_000:
            assert len(shares._times) < 12_000
        elif step % 250 == 0:
            back = (0.75, 12.0, 29.0)[step // 250 % 3]
            entry = log.add_throughput(sim.now - back, 1400)
            assert shares._absorb_throughput(log, entry) \
                == reference.absorb(log, entry)
            for cid in reference.logs:
                assert shares.availability(cid) == reference.availability(cid)
    assert len(shares._times) < 12_000  # pruned, not the whole run
