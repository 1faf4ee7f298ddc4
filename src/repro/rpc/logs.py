"""Per-endpoint observation logs (paper §6.2.1).

"Each distinct endpoint has its own log, and observations for different
endpoints are recorded independently."  Entries are appended by the RPC
protocol as a side effect of ordinary traffic — estimation is purely
passive.  Observers (the viceroy's policy) subscribe to be told about each
new entry.

Beyond the two entry kinds the paper names, the log also records raw
*delivery* events (timestamped byte arrivals).  The centralized viceroy uses
these to compute aggregate link throughput across all connections during any
interval — the mechanism behind "the viceroy collects information from all
logs to estimate the total bandwidth available to the client".

Deliveries are kept in time order (simulation time never goes backwards),
so interval queries bisect into a prefix-sum index instead of scanning the
whole retained window.  The centralized estimator does not query every
peer log per observation: each log hands its deliveries to one
shard-wide index through :attr:`RpcLog.delivery_listener`.
"""

from bisect import bisect_right
from dataclasses import dataclass

#: How much delivery history each log retains, seconds.
DELIVERY_HISTORY_SECONDS = 30.0

#: Round-trip / throughput entries retained per log.  Estimators only ever
#: read the newest entry (plus the delivery window above), so with
#: thousands of fleet connections the unbounded lists were pure memory
#: growth.  Compaction keeps the most recent ``HISTORY_LIMIT`` entries and
#: runs only once the list doubles past the cap, so the amortized cost per
#: append is O(1).
HISTORY_LIMIT = 512


@dataclass(frozen=True, slots=True)
class RoundTripEntry:
    """One small exchange: elapsed wall time minus server compute time."""

    at: float  # completion time
    seconds: float  # R: round trip less server computation
    request_bytes: int
    response_bytes: int


@dataclass(frozen=True, slots=True)
class ThroughputEntry:
    """One bulk-transfer window: request-to-last-byte elapsed time."""

    at: float  # completion time
    started: float  # window request time
    nbytes: int  # W: window payload bytes
    seconds: float  # T: elapsed

    @property
    def raw_rate(self):
        """Unsmoothed W/T in bytes/s (no round-trip correction)."""
        return self.nbytes / self.seconds if self.seconds > 0 else 0.0


class RpcLog:
    """The observation log of one RPC endpoint (connection)."""

    #: Entry-history cap; a class attribute so tests can tighten it.
    history_limit = HISTORY_LIMIT

    def __init__(self, sim, connection_id):
        self.sim = sim
        self.connection_id = connection_id
        self.round_trips = []
        self.throughputs = []
        #: Delivery index: parallel, time-sorted lists.  ``_delivery_cums``
        #: holds the running byte total *including pruned entries*, so an
        #: interval sum is one subtraction of two bisected positions.
        #: ``_delivery_head`` marks the first live (un-pruned) index; the
        #: dead prefix is physically removed only in chunks, keeping
        #: pruning amortized O(1) like the old deque's ``popleft``.
        self._delivery_times = []
        self._delivery_cums = []
        self._delivery_head = 0
        #: Running total as of the last *physically removed* entry, so a
        #: query bisecting to index 0 subtracts the pruned prefix.
        self._delivery_cum_base = 0
        self._delivered_total = 0
        self._observers = []
        #: Single hot-path callback invoked as ``listener(time, nbytes)``
        #: after every delivery.  The observer protocol above deliberately
        #: excludes deliveries — they are far too frequent for a fan-out
        #: list — but the centralized share estimator keeps its own
        #: shard-wide delivery index fed from here.  One attribute check
        #: per delivery, the same discipline as the telemetry recorder's
        #: ``enabled`` gate.
        self.delivery_listener = None

    def subscribe(self, observer):
        """Register ``observer``; it must expose ``on_round_trip(log, entry)``
        and ``on_throughput(log, entry)`` methods."""
        self._observers.append(observer)

    def unsubscribe(self, observer):
        self._observers.remove(observer)

    # -- appends (called by the protocol) -----------------------------------

    def _compact(self, entries):
        if len(entries) > 2 * self.history_limit:
            del entries[:len(entries) - self.history_limit]

    def add_round_trip(self, seconds, request_bytes, response_bytes):
        entry = RoundTripEntry(self.sim.now, seconds, request_bytes, response_bytes)
        self.round_trips.append(entry)
        self._compact(self.round_trips)
        for observer in list(self._observers):
            observer.on_round_trip(self, entry)
        return entry

    def add_throughput(self, started, nbytes):
        entry = ThroughputEntry(
            self.sim.now, started, nbytes, self.sim.now - started
        )
        self.throughputs.append(entry)
        self._compact(self.throughputs)
        for observer in list(self._observers):
            observer.on_throughput(self, entry)
        return entry

    def add_delivery(self, nbytes):
        """Record ``nbytes`` of payload arriving now (fragment or response)."""
        now = self.sim.now
        self._delivered_total += nbytes
        self._delivery_times.append(now)
        self._delivery_cums.append(self._delivered_total)
        horizon = now - DELIVERY_HISTORY_SECONDS
        times = self._delivery_times
        head = self._delivery_head
        while head < len(times) and times[head] < horizon:
            head += 1
        if head > 4096 and head * 2 > len(times):
            self._delivery_cum_base = self._delivery_cums[head - 1]
            del self._delivery_times[:head]
            del self._delivery_cums[:head]
            head = 0
        self._delivery_head = head
        if self.delivery_listener is not None:
            self.delivery_listener(now, nbytes)

    # -- queries (used by estimators) ----------------------------------------

    @property
    def delivered_total(self):
        """Total payload bytes ever delivered on this endpoint."""
        return self._delivered_total

    def bytes_delivered_between(self, start, end):
        """Payload bytes that arrived in the half-open interval (start, end].

        Only ``DELIVERY_HISTORY_SECONDS`` of history is retained; asking
        about older intervals undercounts, which estimators tolerate.
        """
        times = self._delivery_times
        head = self._delivery_head
        lo = bisect_right(times, start, head)
        hi = bisect_right(times, end, head)
        if hi <= lo:
            return 0
        cums = self._delivery_cums
        base = cums[lo - 1] if lo > 0 else self._delivery_cum_base
        return cums[hi - 1] - base

    def retained_deliveries(self):
        """``(time, nbytes)`` of every retained delivery, oldest first."""
        times, cums = self._delivery_times, self._delivery_cums
        head = self._delivery_head
        previous = cums[head - 1] if head else self._delivery_cum_base
        for index in range(head, len(times)):
            yield times[index], cums[index] - previous
            previous = cums[index]

    def recent_rate(self, horizon):
        """Mean delivery rate over the last ``horizon`` seconds (bytes/s)."""
        if horizon <= 0:
            return 0.0
        start = self.sim.now - horizon
        return self.bytes_delivered_between(start, self.sim.now) / horizon

    def last_activity(self):
        """Time of the most recent entry of any kind, or None."""
        times = []
        if self.round_trips:
            times.append(self.round_trips[-1].at)
        if self.throughputs:
            times.append(self.throughputs[-1].at)
        if len(self._delivery_times) > self._delivery_head:
            times.append(self._delivery_times[-1])
        return max(times) if times else None
