"""Per-client estimation cost in a fleet shard must not grow with its size.

Counts, not timings: every ``RpcLog`` delivery query made while a shard
runs, per throughput entry the shard's ``ClientShares`` absorbs.  The
shard-wide delivery index answers the aggregate and every usage window
itself, and a bandwidth recheck hoists the share split once, so the only
log query left per entry is the estimator's look at its own log — the
same number at 32 clients as at 128.  Querying every peer's log per
entry (or per rechecked registration) would make it grow with the
client count.
"""

import pytest

from repro.estimation.share import ClientShares
from repro.fleet.shard import run_fleet_shard
from repro.rpc.logs import RpcLog


def queries_per_entry(monkeypatch, clients):
    counts = {"queries": 0, "entries": 0}

    def counted(function, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)
        return wrapper

    with monkeypatch.context() as patch:
        for name in ("bytes_delivered_between", "recent_rate"):
            patch.setattr(RpcLog, name,
                          counted(getattr(RpcLog, name), "queries"))
        patch.setattr(ClientShares, "on_throughput",
                      counted(ClientShares.on_throughput, "entries"))
        run_fleet_shard(clients, duration=4.0, prime=2.0, seed=7)
    assert counts["entries"] > clients  # every client moved windows
    return counts["queries"] / counts["entries"]


def test_log_queries_per_throughput_entry_do_not_grow(monkeypatch):
    small = queries_per_entry(monkeypatch, 32)
    large = queries_per_entry(monkeypatch, 128)
    assert small == pytest.approx(1.0, abs=0.05)
    assert large <= small * 1.05
