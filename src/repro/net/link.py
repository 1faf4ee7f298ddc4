"""A serializing, trace-modulated simplex link.

The link is the paper's delay layer: traffic is delayed "according to a
simple linear model combining latency and bandwidth-induced delays"
(§6.1.2).  Packets serialize FIFO through the bandwidth term (they queue
behind each other), then experience the propagation latency in effect when
serialization finishes.  Delivery order is forced FIFO even across latency
drops, matching in-order modulation of a single radio.

Under that model a packet's whole schedule is fixed the moment it is
queued: it starts when the link goes idle, finishes when the trace has
carried its bytes, and is delivered one latency later (no earlier than the
packet before it).  ``send`` therefore computes all three at once and
schedules one kernel event per packet, its delivery.  Only a link with a
drop filter keeps a second event, at the finish instant, because the drop
decision consumes a random stream in finish order (see ``drop_filter``).
"""

import math
from collections import deque
from dataclasses import dataclass, field

from repro.errors import LinkDown
from repro.trace.integrate import SegmentCursor, transmission_finish_time

_INF = math.inf


@dataclass(slots=True)
class LinkStats:
    """Counters a link keeps for evaluation and tests.

    A packet is counted as sent (and its serialization as busy time) when
    ``send`` schedules it, in FIFO order; a packet that can never finish
    (bandwidth pinned at zero forever) is not counted.
    """

    packets_sent: int = 0
    bytes_sent: int = 0
    packets_dropped: int = 0
    busy_seconds: float = 0.0
    max_queue_depth: int = 0
    deliveries: list = field(default_factory=list, repr=False)


class SimplexLink:
    """One direction of the modulated wireless link.

    ``send(packet)`` starts the packet's serialization when the link goes
    idle (at once if it is idle now), finishes it exactly across trace
    transitions, and schedules delivery ``latency_at(finish)`` later via
    ``deliver`` (a callable set by the network).
    """

    def __init__(self, sim, trace, name, deliver=None, record_deliveries=False):
        self.sim = sim
        self.trace = trace
        self.name = name
        self.deliver = deliver
        self.stats = LinkStats()
        #: Optional fault hook: ``drop_filter(packet, when) -> bool``.  A
        #: truthy return discards the packet after serialization (the bytes
        #: occupied the air, but the receiver never sees them) — the
        #: mechanism behind injected loss bursts (:mod:`repro.faults`).
        #: The filter is asked at each packet's finish instant, in finish
        #: order, so a random filter draws in the order the air saw the
        #: packets; set it before traffic flows, since packets already
        #: sent without a filter are not asked.
        self.drop_filter = None
        self._record_deliveries = record_deliveries
        self._cursor = SegmentCursor(trace)
        #: Finish time of the last packet sent: when the link goes idle.
        self._idle_at = -_INF
        #: Finish times of the packets that had not finished at the last
        #: send (non-decreasing; the first is the packet in service).
        self._unfinished = deque()
        self._last_delivery = 0.0

    @property
    def queue_depth(self):
        """Packets waiting or in service (approximate, for inspection)."""
        now = self.sim.now
        return sum(1 for finish in self._unfinished if finish >= now)

    def send(self, packet):
        """Queue ``packet`` for transmission and schedule its delivery."""
        sim = self.sim
        now = sim.now
        packet.enqueued_at = now
        unfinished = self._unfinished
        start = self._idle_at
        if start < now:
            start = now
            unfinished.clear()
        else:
            # Busy: the packet waits behind every unfinished one but the
            # one in service.  A packet finishing exactly now still counts
            # as in service, as if this send ran before its finish.
            while unfinished[0] < now:
                unfinished.popleft()
            stats = self.stats
            if len(unfinished) > stats.max_queue_depth:
                stats.max_queue_depth = len(unfinished)
            if start == _INF:
                # Queued behind a packet that never finishes.
                unfinished.append(start)
                return
        finish = transmission_finish_time(self.trace, start, packet.size,
                                          self._cursor)
        if finish == _INF:
            self._idle_at = finish
            unfinished.append(finish)
            # Surface at run() when serialization would have begun.
            sim.call_at(start, self._down, packet, exact=True)
            return
        # Round the finish as a delay from ``start`` would be rounded: the
        # instant the next packet starts and the drop filter is asked.
        finish = start + (finish - start)
        self._idle_at = finish
        unfinished.append(finish)
        stats = self.stats
        stats.packets_sent += 1
        stats.bytes_sent += packet.size
        stats.busy_seconds += finish - start
        if self.drop_filter is not None:
            sim.call_at(finish, self._finish, packet, exact=True)
            return
        deliver_at = finish + self._cursor.latency_at(finish)
        # Enforce FIFO delivery even if latency drops mid-flight.
        if deliver_at < self._last_delivery:
            deliver_at = self._last_delivery
        self._last_delivery = deliver_at
        sim.call_at(finish + (deliver_at - finish), self._deliver, packet,
                    exact=True)

    def _finish(self, packet):
        """A filtered link's finish instant: drop, or schedule delivery."""
        finish = self.sim.now
        drop_filter = self.drop_filter
        if drop_filter is not None and drop_filter(packet, finish):
            self.stats.packets_dropped += 1
            return
        deliver_at = finish + self._cursor.latency_at(finish)
        if deliver_at < self._last_delivery:
            deliver_at = self._last_delivery
        self._last_delivery = deliver_at
        self.sim.call_at(deliver_at, self._deliver, packet)

    def _down(self, packet):
        raise LinkDown(
            f"link {self.name!r}: bandwidth pinned at zero forever; "
            f"cannot transmit {packet!r}"
        )

    def _deliver(self, packet):
        packet.delivered_at = self.sim.now
        if self._record_deliveries:
            self.stats.deliveries.append((self.sim.now, packet.size))
        if self.deliver is None:
            raise LinkDown(f"link {self.name!r} has no delivery target")
        self.deliver(packet)
