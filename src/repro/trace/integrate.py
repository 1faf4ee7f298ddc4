"""Exact byte-count integration over piecewise-constant rate traces.

The link transmitter must answer: *starting at time t0, when will S bytes
have been serialized onto a link whose rate follows the replay trace?*  With
piecewise-constant rates the answer is exact — walk segments, accumulating
``rate × dt`` until S is consumed.  This matters at the paper's waveform
transitions: a packet straddling a step is partially sent at each rate, which
is precisely the behaviour the in-kernel delay layer exhibits.

Zero-bandwidth segments stall transmission until the next transition;
a trace that ends at zero bandwidth stalls forever (returns ``inf``).

A link asks this question once per packet with start times that never
decrease, and almost every packet fits inside the segment its start lies
in.  A :class:`SegmentCursor` remembers that segment, so such a packet
costs one division; a packet that straddles a step or a stall takes the
segment walk, which is the only integration routine.
"""

import math

from repro.errors import ReproError


class SegmentCursor:
    """The trace segment covering the last time looked up.

    ``start <= t < end`` holds for the covered times; past the trace's
    end the final segment holds forever (``end`` is ``inf``).  Lookups at
    any time are correct; lookups at non-decreasing times move the cursor
    only when they cross a transition.
    """

    __slots__ = ("_trace", "start", "end", "bandwidth", "latency")

    def __init__(self, trace):
        self._trace = trace
        self.start = self.end = -math.inf
        self.bandwidth = self.latency = 0.0

    def seek(self, t):
        """Cover time ``t`` (the segment ``ReplayTrace.segment_at(t)`` names)."""
        trace = self._trace
        idx = trace._segment_index(t)
        seg = trace.segments[idx]
        start = trace._starts[idx]
        end = start + seg.duration
        if t >= end:
            # Past the trace's end: the final segment holds forever.
            start, end = end, math.inf
        self.start = start
        self.end = end
        self.bandwidth = seg.bandwidth
        self.latency = seg.latency

    def latency_at(self, t):
        """One-way latency in effect at ``t``; equals ``trace.latency_at(t)``."""
        if not self.start <= t < self.end:
            self.seek(t)
        return self.latency


def transmission_finish_time(trace, start, nbytes, cursor=None):
    """Time at which ``nbytes`` finish serializing when starting at ``start``.

    Parameters
    ----------
    trace:
        A :class:`~repro.trace.replay.ReplayTrace` giving rate (bytes/s) over
        time.  After its last segment the final rate holds forever.
    start:
        Transmission start time, seconds.
    nbytes:
        Number of bytes to serialize; must be >= 0.
    cursor:
        Optional :class:`SegmentCursor` over ``trace``.  When the bytes fit
        in the segment covering ``start`` the answer is computed from the
        cursor without walking the trace; the result is identical either
        way.

    Returns
    -------
    float
        Absolute completion time.  ``math.inf`` if the trace pins the rate
        at zero forever before the bytes are consumed.
    """
    if nbytes < 0:
        raise ReproError(f"nbytes must be >= 0, got {nbytes!r}")
    if nbytes == 0:
        return start
    remaining = float(nbytes)
    if cursor is not None:
        if not cursor.start <= start < cursor.end:
            cursor.seek(start)
        rate = cursor.bandwidth
        if rate > 0:
            # The walk's first step, for the segment covering ``start``.
            needed = remaining / rate
            if needed <= cursor.end - start:
                return start + needed
    t = start
    for seg_start, seg in trace.segment_boundaries_after(start):
        seg_end = seg_start + seg.duration
        if seg_end <= t:
            continue
        span = seg_end - t
        if seg.bandwidth > 0:
            needed = remaining / seg.bandwidth
            if needed <= span:
                return t + needed
            remaining -= seg.bandwidth * span
        t = seg_end
    # Past the end of the trace: the final segment's rate holds forever.
    final_rate = trace.segments[-1].bandwidth
    if final_rate <= 0:
        return math.inf
    return t + remaining / final_rate


def bytes_transferable(trace, start, end):
    """How many bytes a saturating sender can move in [start, end].

    The exact inverse view of :func:`transmission_finish_time`; used by
    tests as an oracle and by workload generators for pacing.
    """
    if end < start:
        raise ReproError(f"bytes_transferable: end {end!r} < start {start!r}")
    total = 0.0
    t = start
    for seg_start, seg in trace.segment_boundaries_after(start):
        seg_end = seg_start + seg.duration
        lo = max(t, seg_start)
        hi = min(end, seg_end)
        if hi > lo:
            total += seg.bandwidth * (hi - lo)
            t = hi
        if seg_end >= end:
            return total
    if t < end:
        total += trace.segments[-1].bandwidth * (end - t)
    return total
