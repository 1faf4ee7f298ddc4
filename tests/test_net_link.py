"""Modulated links: serialization, FIFO delivery, stats."""

import math
import random
from collections import deque

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import LinkDown, NetworkError
from repro.net.link import LinkStats, SimplexLink
from repro.net.packet import HEADER_BYTES, Packet
from repro.sim.kernel import Simulator
from repro.trace.integrate import transmission_finish_time
from repro.trace.replay import ReplayTrace, Segment


def make_packet(size, tag=None):
    return Packet(src="a", dst="b", port="p", size=size, payload=tag)


def collecting_link(sim, trace):
    received = []
    link = SimplexLink(sim, trace, "test-link",
                       deliver=lambda p: received.append((sim.now, p)))
    return link, received


def test_packet_smaller_than_header_rejected():
    with pytest.raises(NetworkError):
        make_packet(HEADER_BYTES - 1)


def test_payload_bytes_excludes_header():
    packet = make_packet(HEADER_BYTES + 100)
    assert packet.payload_bytes == 100


def test_single_packet_latency_plus_transmission():
    sim = Simulator()
    trace = ReplayTrace([Segment(100, 1000, 0.5)])
    link, received = collecting_link(sim, trace)
    link.send(make_packet(1000))
    sim.run()
    # 1 s serialization + 0.5 s propagation.
    assert received[0][0] == pytest.approx(1.5)


def test_packets_serialize_fifo():
    sim = Simulator()
    trace = ReplayTrace([Segment(100, 1000, 0.0)])
    link, received = collecting_link(sim, trace)
    for tag in ("first", "second", "third"):
        link.send(make_packet(1000, tag))
    sim.run()
    times = [t for t, _ in received]
    tags = [p.payload for _, p in received]
    assert tags == ["first", "second", "third"]
    assert times == pytest.approx([1.0, 2.0, 3.0])


def test_transmission_straddles_bandwidth_step():
    sim = Simulator()
    trace = ReplayTrace([Segment(1, 1000, 0.0), Segment(100, 3000, 0.0)])
    link, received = collecting_link(sim, trace)
    # 4000 bytes: 1000 in the first second, 3000 in the next -> t=2.
    link.send(make_packet(4000))
    sim.run()
    assert received[0][0] == pytest.approx(2.0)


def test_fifo_preserved_across_latency_drop():
    sim = Simulator()
    trace = ReplayTrace([Segment(1.05, 10000, 1.0), Segment(100, 10000, 0.0)])
    link, received = collecting_link(sim, trace)
    link.send(make_packet(10000))  # finishes t=1, delivered t=2 (latency 1.0)
    link.send(make_packet(1000))   # finishes t=1.1, latency now 0
    sim.run()
    tags = [p.packet_id for _, p in received]
    assert tags == sorted(tags)
    assert received[1][0] >= received[0][0]


def test_stats_accumulate():
    sim = Simulator()
    trace = ReplayTrace([Segment(100, 1000, 0.0)])
    link, _ = collecting_link(sim, trace)
    for _ in range(3):
        link.send(make_packet(500))
    sim.run()
    assert link.stats.packets_sent == 3
    assert link.stats.bytes_sent == 1500
    assert link.stats.busy_seconds == pytest.approx(1.5)
    assert link.stats.max_queue_depth >= 2


def test_zero_bandwidth_forever_raises_linkdown():
    sim = Simulator()
    trace = ReplayTrace([Segment(1, 0, 0.0)])
    link, _ = collecting_link(sim, trace)
    link.send(make_packet(100))
    with pytest.raises(LinkDown):
        sim.run()


def test_stalled_packet_resumes_after_outage():
    sim = Simulator()
    trace = ReplayTrace([
        Segment(1, 1000, 0.0), Segment(5, 0, 0.0), Segment(100, 1000, 0.0),
    ])
    link, received = collecting_link(sim, trace)
    link.send(make_packet(2000))  # 1000 by t=1, stall 5 s, 1000 more by t=7
    sim.run()
    assert received[0][0] == pytest.approx(7.0)


def test_packet_behind_a_stuck_one_raises_no_second_linkdown():
    sim = Simulator()
    # 1000 B/s for one second, then no bandwidth ever again.
    trace = ReplayTrace([Segment(1, 1000, 0.0), Segment(1, 0, 0.0)])
    link, received = collecting_link(sim, trace)
    link.send(make_packet(500, "first"))   # finishes at t=0.5
    link.send(make_packet(2000, "stuck"))  # begins at 0.5, never finishes
    link.send(make_packet(100, "behind"))
    with pytest.raises(LinkDown):
        sim.run()
    assert sim.now == 0.5
    sim.run(until=2.0)  # nothing left to raise
    link.send(make_packet(100, "later"))
    sim.run()
    assert [p.payload for _, p in received] == ["first"]
    assert link.stats.packets_sent == 1
    assert link.stats.max_queue_depth == 2


class TwoEventLink:
    """The link as a two-event model, kept as the reference for
    :class:`SimplexLink`: a packet begins serializing when the packet ahead
    of it finishes, and each finish is a kernel event that decides the
    drop and schedules the delivery."""

    def __init__(self, sim, trace, deliver, drop_filter=None):
        self.sim = sim
        self.trace = trace
        self.deliver = deliver
        self.drop_filter = drop_filter
        self.stats = LinkStats()
        self._waiting = deque()
        self._busy = False
        self._last_delivery = 0.0

    def send(self, packet):
        if self._busy:
            self._waiting.append(packet)
            self.stats.max_queue_depth = max(self.stats.max_queue_depth,
                                             len(self._waiting))
        else:
            self._busy = True
            self._begin(packet)

    def _begin(self, packet):
        start = self.sim.now
        finish = transmission_finish_time(self.trace, start, packet.size)
        if math.isinf(finish):
            raise AssertionError("reference traces keep a finite final rate")
        self.sim.call_at(finish, self._finish, packet, start)

    def _finish(self, packet, start):
        finish = self.sim.now
        stats = self.stats
        stats.packets_sent += 1
        stats.bytes_sent += packet.size
        stats.busy_seconds += finish - start
        if self.drop_filter is not None and self.drop_filter(packet, finish):
            stats.packets_dropped += 1
        else:
            deliver_at = max(finish + self.trace.latency_at(finish),
                             self._last_delivery)
            self._last_delivery = deliver_at
            self.sim.call_at(deliver_at, self.deliver, packet)
        if self._waiting:
            self._begin(self._waiting.popleft())
        else:
            self._busy = False


def seeded_drops(seed, fraction=0.3):
    rng = random.Random(seed)
    return lambda packet, when: rng.random() < fraction


# Eighths of a second and round rates make sends coincide with finishes
# and segment boundaries, the instants where the two models could part.
segments = st.lists(
    st.builds(
        Segment,
        duration=st.integers(1, 16).map(lambda n: n / 8),
        bandwidth=st.sampled_from([0, 0, 500, 1000, 1500, 4096, 12_500.5]),
        latency=st.sampled_from([0.0, 0.01, 0.125, 0.3, 1.25]),
    ),
    min_size=1, max_size=6,
)
final_segment = st.builds(
    Segment,
    duration=st.just(1.0),
    bandwidth=st.sampled_from([700, 1000, 3000.25]),
    latency=st.sampled_from([0.0, 0.02, 0.3]),
)
sends = st.lists(
    st.tuples(
        st.one_of(st.integers(0, 120).map(lambda n: n / 8),
                  st.floats(0, 15, allow_nan=False),
                  st.floats(0, 0.01, allow_nan=False)),
        st.one_of(st.integers(HEADER_BYTES, 3000),
                  st.sampled_from([125, 250, 500, 1000])),
    ),
    min_size=1, max_size=40,
)


def run_model(make_link, trace, schedule):
    sim = Simulator()
    received = []
    link = make_link(sim, trace, lambda p: received.append((sim.now, p.payload)))
    for tag, (at, size) in enumerate(schedule):
        sim.call_at(at, link.send, make_packet(size, tag))
    sim.run()
    stats = link.stats
    return received, (stats.packets_sent, stats.bytes_sent,
                      stats.busy_seconds, stats.packets_dropped,
                      stats.max_queue_depth)


@settings(max_examples=300, deadline=None)
@given(segments, final_segment, sends,
       st.one_of(st.none(), st.integers(0, 2**32)))
# A send at the instant the packet ahead finishes: it counts as waiting.
@example([Segment(1.0, 1000, 0.0)], Segment(1.0, 1000, 0.0),
         [(0.0, 500), (0.0, 500), (0.5, 125)], None)
# A latency drop clamps the second delivery to the first, and the clamped
# time only lands where the finish event's delay would have put it.
@example([Segment(0.125, 1000, 1.25)], Segment(1.0, 1000, 0.0),
         [(0.0, 66), (0.0, 64)], None)
def test_link_matches_two_event_reference_exactly(body, final, schedule, drops):
    trace = ReplayTrace([*body, final])
    schedule = sorted(schedule, key=lambda send: send[0])

    def eager(sim, trace, deliver):
        link = SimplexLink(sim, trace, "eager", deliver=deliver)
        if drops is not None:
            link.drop_filter = seeded_drops(drops)
        return link

    def reference(sim, trace, deliver):
        return TwoEventLink(sim, trace, deliver,
                            None if drops is None else seeded_drops(drops))

    got = run_model(eager, trace, schedule)
    want = run_model(reference, trace, schedule)
    assert got == want
