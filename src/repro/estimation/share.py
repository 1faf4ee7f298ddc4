"""Centralized estimation: total client bandwidth and per-connection shares.

"The viceroy collects information from all logs to estimate the total
bandwidth available to the client.  It then estimates the fraction of this
bandwidth likely to be available to each connection.  A connection estimate
is composed of two parts: a competed-for part proportional to recent use,
and a fair-share part reflecting an expected lower bound."  (paper §6.2.1)

Mechanism for the total: each throughput entry observed on any connection
covers an interval during which the client's link was (at least partly)
busy.  Summing the bytes *all* connections received during that interval and
dividing by the window's effective time yields a sample of the link's
capacity regardless of how many connections shared it:

- one connection bursting alone: its own bytes over its own window — the
  full link rate;
- two saturating connections: each window interval includes the other
  connection's concurrent bytes, so the sample again reflects the full link.

The sample feeds the same Eq. 1 smoothing as per-connection estimates.

"All logs" is read through one shard-wide delivery index rather than by
querying every connection's log (the Congestion Manager's single per-host
aggregate over flows).  Each registered log reports its deliveries to the
index; the index keeps them in time order with running byte totals, so
the aggregate over a window is one bisect pair, and the per-connection
byte sums over the usage and competing horizons are kept incrementally
as deliveries arrive and age out.  Every value equals the per-log
arithmetic exactly: byte sums are integers, and the usage denominator is
summed in registration order unless the horizon is a power of two (then
``sum(b_i / h) == sum(b_i) / h`` exactly).
"""

import heapq
import math
from bisect import bisect_right

from repro import telemetry
from repro.errors import ReproError
from repro.estimation.bandwidth import (
    MIN_EFFECTIVE_SECONDS,
    ConnectionEstimator,
    THROUGHPUT_GAIN,
)
from repro.estimation.ewma import EwmaFilter
from repro.rpc.logs import DELIVERY_HISTORY_SECONDS

#: Sliding window over which "recent use" is measured, seconds.  Long
#: enough to average over several transfer bursts of a lightly-loaded
#: connection (a 10 %-utilization bitstream bursts every ~2.7 s).
USAGE_HORIZON = 8.0
#: Fraction of the total reserved as equal fair shares (the lower bound).
FAIR_FRACTION = 0.25
#: Horizon over which a peer connection's recent delivery rate marks it as
#: actively competing, seconds.  Short: competition matters only if the peer
#: moved traffic during (roughly) the observed window.
COMPETING_HORIZON = 3.0
#: Recent-rate floor (bytes/s) above which a peer counts as competing.
#: Below this, traffic is keepalive-scale noise that neither kept the link
#: busy nor polluted the round-trip log.
COMPETING_RATE_FLOOR = 1024.0

#: Deliveries the index takes in between two catch-ups of its windows.  A
#: shard that only makes small calls (no throughput entries, so no
#: queries) still prunes its index this often.
_CATCH_UP_EVERY = 4096


def _check_horizon(name, value):
    if not 0 < value <= DELIVERY_HISTORY_SECONDS:
        raise ReproError(
            f"{name} must be in (0, {DELIVERY_HISTORY_SECONDS}] (the logs' "
            f"retained delivery history), got {value!r}"
        )


class ClientShares:
    """Total-bandwidth estimate plus per-connection availability split."""

    def __init__(self, sim, gain=THROUGHPUT_GAIN, usage_horizon=USAGE_HORIZON,
                 fair_fraction=FAIR_FRACTION, competing_horizon=COMPETING_HORIZON,
                 competing_rate_floor=COMPETING_RATE_FLOOR, estimator_kwargs=None):
        if not 0 < fair_fraction <= 1:
            raise ReproError(f"fair_fraction must be in (0, 1], got {fair_fraction!r}")
        _check_horizon("usage_horizon", usage_horizon)
        _check_horizon("competing_horizon", competing_horizon)
        if competing_rate_floor < 0:
            raise ReproError(
                f"competing_rate_floor must be >= 0, got {competing_rate_floor!r}"
            )
        self.sim = sim
        self.usage_horizon = usage_horizon
        self.fair_fraction = fair_fraction
        self.competing_horizon = competing_horizon
        self.competing_rate_floor = competing_rate_floor
        self.total_filter = EwmaFilter(gain)
        self.total_history = []  # (time, total estimate)
        self._logs = {}  # connection_id -> RpcLog, in registration order
        self._estimators = {}  # connection_id -> ConnectionEstimator
        #: Forwarded to each ConnectionEstimator (ablation studies vary
        #: gains and the rise cap here).
        self.estimator_kwargs = estimator_kwargs or {}
        #: With a power-of-two horizon every usage ``b / h`` is exact, so
        #: the usage denominator is the byte total over ``h``; any other
        #: horizon sums the per-connection usages in registration order.
        _, exponent = math.frexp(usage_horizon)
        self._exact_usage_sum = math.ldexp(1.0, exponent - 1) == usage_horizon
        self._reset_index()

    # -- the shard-wide delivery index -----------------------------------------

    def _reset_index(self):
        """Empty the index; slots follow ``self._logs`` order."""
        #: Parallel, time-sorted lists: delivery time and owning
        #: connection's slot per delivery, and the running byte total
        #: *before* each delivery plus one final total, so delivery ``i``
        #: moved ``cums[i + 1] - cums[i]`` bytes and any run of deliveries
        #: is one subtraction.
        self._times = []
        self._owners = []
        self._cums = [0]
        self._usage_head = 0  # first entry inside the usage horizon
        self._competing_head = 0  # first entry inside the competing horizon
        self._catch_up_at = _CATCH_UP_EVERY
        self._slots = {}  # connection_id -> slot
        self._usage = []  # slot -> bytes within the usage horizon
        self._competing = []  # slot -> bytes within the competing horizon
        self._busy = []  # slot -> rate above competing_rate_floor
        self._busy_count = 0
        #: Set by a membership change: the index must be rebuilt from the
        #: logs' retained history before its next use.
        self._stale = False

    def _listener(self, slot):
        """The delivery callback of the log in ``slot``.

        A delivery enters both horizons the moment it arrives; the lists
        are captured directly to keep this hot path short.  They are only
        ever trimmed in place, and a rebuild hands every log a fresh
        listener.
        """
        times, cums, owners = self._times, self._cums, self._owners
        usage, competing, busy = self._usage, self._competing, self._busy
        horizon, floor = self.competing_horizon, self.competing_rate_floor

        def on_delivery(now, nbytes):
            times.append(now)
            cums.append(cums[-1] + nbytes)
            owners.append(slot)
            usage[slot] += nbytes
            competing[slot] += nbytes
            if not busy[slot] and competing[slot] / horizon > floor:
                busy[slot] = True
                self._busy_count += 1
            if len(times) >= self._catch_up_at:
                self._advance(now)

        return on_delivery

    def _rebuild(self):
        """Rebuild the index from every registered log's retained history.

        Needed after every membership change: an unregistered log's
        deliveries must leave the index, and a registered log's history
        (a re-registered one's included) must be merged in.  Connections
        are registered in bursts (a shard's at build time, all of them
        again after a viceroy restart), so one rebuild serves each
        burst.  The logs retain at least
        ``DELIVERY_HISTORY_SECONDS`` of deliveries, every window this
        index answers lies inside that span, so nothing is lost.
        """
        self._reset_index()
        # A connection alone gets the whole total whatever its usage, so
        # the index only listens while two or more are registered.
        indexed = len(self._logs) > 1
        histories = []
        for slot, log in enumerate(self._logs.values()):
            self._slots[log.connection_id] = slot
            self._usage.append(0)
            self._competing.append(0)
            self._busy.append(False)
            log.delivery_listener = self._listener(slot) if indexed else None
            if indexed:
                histories.append([(when, nbytes, log.delivery_listener)
                                  for when, nbytes in log.retained_deliveries()])
        # Replayed in time order, as they arrived.
        for when, nbytes, listener in heapq.merge(
                *histories, key=lambda delivery: delivery[0]):
            listener(when, nbytes)

    def _refresh(self):
        """Bring the index and its windows up to the current time."""
        if self._stale:
            self._rebuild()
        self._advance(self.sim.now)

    def _advance(self, now):
        """Age out deliveries that left the horizons.

        A delivery at time ``t`` lies in a horizon ``h`` while
        ``t > now - h`` — the same half-open test as
        :meth:`~repro.rpc.logs.RpcLog.recent_rate`.
        """
        times, cums, owners = self._times, self._cums, self._owners
        end = len(times)
        start = now - self.usage_horizon
        head = self._usage_head
        usage = self._usage
        while head < end and times[head] <= start:
            usage[owners[head]] -= cums[head + 1] - cums[head]
            head += 1
        self._usage_head = head
        start = now - self.competing_horizon
        head = self._competing_head
        competing, busy = self._competing, self._busy
        horizon, floor = self.competing_horizon, self.competing_rate_floor
        while head < end and times[head] <= start:
            slot = owners[head]
            competing[slot] -= cums[head + 1] - cums[head]
            if busy[slot] and not competing[slot] / horizon > floor:
                busy[slot] = False
                self._busy_count -= 1
            head += 1
        self._competing_head = head
        if min(self._usage_head, head) > _CATCH_UP_EVERY:
            self._compact(now)
        self._catch_up_at = len(times) + _CATCH_UP_EVERY

    def _compact(self, now):
        """Drop the index prefix no window or aggregate query can reach.

        Throughput windows reaching back more than the retained history
        are answered from the logs themselves (see
        :meth:`_aggregate_bytes`), so entries older than that history and
        behind both window heads are dead.  Like the logs, the dead prefix
        is removed in chunks, keeping the cost amortized O(1).
        """
        times = self._times
        dead = min(self._usage_head, self._competing_head,
                   bisect_right(times, now - DELIVERY_HISTORY_SECONDS))
        if dead > _CATCH_UP_EVERY and dead * 2 > len(times):
            del times[:dead]
            del self._cums[:dead]
            del self._owners[:dead]
            self._usage_head -= dead
            self._competing_head -= dead

    def _aggregate_bytes(self, started, at):
        """Bytes every registered log received in ``(started, at]``.

        Each log prunes its own history relative to its own latest
        delivery, so a window reaching back more than
        ``DELIVERY_HISTORY_SECONDS`` is summed log by log to undercount
        exactly as they do, and so is a lone connection's (not indexed);
        any other window is one bisect pair here.
        """
        if len(self._logs) == 1 or started < at - DELIVERY_HISTORY_SECONDS:
            return sum(log.bytes_delivered_between(started, at)
                       for log in self._logs.values())
        times = self._times
        lo = bisect_right(times, started)
        hi = bisect_right(times, at, lo)
        return self._cums[hi] - self._cums[lo]

    def _usage_denominator(self):
        """Sum of every connection's usage (the competed-part divisor)."""
        horizon = self.usage_horizon
        if self._exact_usage_sum:
            return (self._cums[-1] - self._cums[self._usage_head]) / horizon
        return sum(nbytes / horizon for nbytes in self._usage)

    # -- registration ---------------------------------------------------------

    def register(self, log):
        """Track ``log`` (an :class:`~repro.rpc.logs.RpcLog`)."""
        if log.connection_id in self._logs:
            raise ReproError(f"connection {log.connection_id!r} already registered")
        self._logs[log.connection_id] = log
        self._estimators[log.connection_id] = ConnectionEstimator(
            self.sim, log.connection_id, **self.estimator_kwargs
        )
        # Its retained history is merged in by the next rebuild.
        log.delivery_listener = None
        self._stale = True

    def unregister(self, connection_id):
        """Stop tracking a connection."""
        log = self._logs.pop(connection_id, None)
        if log is None:
            return
        log.delivery_listener = None
        self._estimators.pop(connection_id, None)
        self._stale = True

    @property
    def connection_count(self):
        return len(self._logs)

    def estimator(self, connection_id):
        """The per-connection estimator (used for R in Eq. 2)."""
        return self._estimators[connection_id]

    # -- log-entry absorption ---------------------------------------------------

    def on_round_trip(self, log, entry):
        self._estimators[log.connection_id].on_round_trip(log, entry)

    def on_throughput(self, log, entry):
        """Absorb a window observation; returns the new total estimate.

        The capacity sample combines two estimators, each exact in its own
        regime:

        - the connection's own Eq. 2 estimate (bytes over T minus the dead
          round trip) — correct when the window ran alone, where the dead
          time really was idle link;
        - the aggregate raw rate (all connections' bytes during the window
          over the full window time) — correct when concurrent traffic kept
          the link busy through the observer's dead time (subtracting R
          there would double-count and overestimate without bound).

        ``max`` selects the applicable one: competition can only raise the
        aggregate, and solo operation can only make the correction valid.
        """
        total, sample, competing = self._absorb_throughput(log, entry)
        rec = telemetry.RECORDER
        if rec.enabled:
            span = rec.begin("shares.update", connection=log.connection_id)
            rec.gauge("estimation.total_bytes_per_s", total)
            if competing:
                rec.count("estimation.competing_updates")
            rec.end(span, sample=sample, total=total, competing=competing)
        return total

    def _absorb_throughput(self, log, entry):
        """The uninstrumented total-capacity update (see :meth:`on_throughput`).

        Returns ``(total, sample, competing)``.  Separate so the telemetry
        overhead benchmark can time the pure computation as its baseline.
        """
        estimator = self._estimators[log.connection_id]
        estimator.on_throughput(log, entry)  # keep the per-connection view fresh
        if self._stale:
            self._rebuild()
        # The aggregate is read before the windows catch up to ``now``:
        # catching up may drop entries older than the history span
        # measured from ``now``, and ``entry.at`` may precede it.
        aggregate = self._aggregate_bytes(entry.started, entry.at)
        self._advance(self.sim.now)
        # Competing: some peer's rate over the competing horizon is above
        # the floor.
        competing = self._busy_count - self._busy[self._slots[log.connection_id]] > 0
        aggregate = max(aggregate, entry.nbytes)
        aggregate_raw = aggregate / max(entry.seconds, MIN_EFFECTIVE_SECONDS)
        if competing:
            # Another connection has been moving real traffic: concurrent
            # transfers keep the link busy through this window's dead time
            # (so the raw aggregate is the capacity), and they pollute the
            # round-trip log (so Eq. 2's correction cannot be trusted).
            sample = aggregate_raw
        else:
            sample = max(estimator.bandwidth_sample(entry, log), aggregate_raw)
        total = self.total_filter.update(sample)
        self.total_history.append((self.sim.now, total))
        return total, sample, competing

    # -- queries -----------------------------------------------------------------

    @property
    def total(self):
        """Smoothed total client bandwidth (bytes/s), or None before data."""
        return self.total_filter.value

    def usage(self, connection_id):
        """Recent consumption rate of one connection (bytes/s)."""
        if len(self._logs) == 1:
            return self._logs[connection_id].recent_rate(self.usage_horizon)
        self._refresh()
        return self._usage[self._slots[connection_id]] / self.usage_horizon

    def availability(self, connection_id):
        """Bandwidth likely available to ``connection_id`` (bytes/s).

        ``fair_fraction`` of the total is divided equally (the expected
        lower bound); the rest is split in proportion to recent use.  With a
        single connection this degenerates to the total.  Returns None
        before any throughput observation.
        """
        if connection_id not in self._logs:
            raise ReproError(f"unknown connection {connection_id!r}")
        levels = self.availabilities()
        return None if levels is None else levels(connection_id)

    def availabilities(self):
        """:meth:`availability` of any registered connection, right now.

        Returns a function ``connection_id -> bytes/s`` with the total,
        the fair part and the usage denominator computed once, so checking
        every connection costs one lookup each — or None before any
        throughput observation.  The function is valid until sim time
        advances or a log changes.
        """
        total = self.total
        if total is None:
            return None
        self._refresh()
        n = len(self._logs)
        fair = self.fair_fraction * total / n
        contested = (1.0 - self.fair_fraction) * total
        # A lone connection is not indexed: its denominator reads 0 and
        # its weight 1/1, the same 1.0 as its own usage over itself.
        denominator = self._usage_denominator()
        slots, usage, horizon = self._slots, self._usage, self.usage_horizon

        def level_of(connection_id):
            slot = slots[connection_id]
            if denominator <= 0:
                weight = 1.0 / n
            else:
                weight = usage[slot] / horizon / denominator
            return fair + contested * weight

        return level_of

    def snapshot(self):
        """A dict of availability per connection (diagnostics and tests)."""
        return {cid: self.availability(cid) for cid in self._logs}
