"""An asyncio event loop that measures how busy it is.

The loop's selector records the time it spends blocked waiting for I/O;
``busy`` is one minus that share of the wall time since :meth:`mark`.  A
loop near 1.0 is saturated: it never waits for the network.

While ``spin`` is set the selector polls instead of blocking.  A blocked
process leaves its virtual CPU idle, and how soon the hypervisor runs an
idle virtual CPU again when a packet arrives depends on the other tenants
of the host: between runs that moved throughput by up to a third and p90
latency twofold.
"""

import asyncio
import selectors
from time import perf_counter

#: Calibration of a serving loop: a short kernel every period.
SAMPLE_ITERATIONS = 5_000
SAMPLE_PERIOD = 0.05


class TimedSelector(selectors.DefaultSelector):
    """The default selector, timing every ``select`` call."""

    def __init__(self):
        super().__init__()
        self.spin = False
        self.mark()

    def mark(self):
        """Start a new measuring window."""
        self.blocked = 0.0
        self.since = perf_counter()

    def select(self, timeout=None):
        started = perf_counter()
        if not self.spin:
            try:
                return super().select(timeout)
            finally:
                self.blocked += perf_counter() - started
        deadline = None if timeout is None else started + timeout
        poll = super().select
        while True:
            events = poll(0)
            if events:
                return events
            now = perf_counter()
            self.blocked += now - started
            if deadline is not None and now >= deadline:
                return events
            started = now

    def busy(self):
        """Share of wall time since :meth:`mark` spent not blocked."""
        wall = perf_counter() - self.since
        return 1.0 - self.blocked / wall if wall > 0 else 0.0


def new_timed_loop(selector):
    """A selector event loop on ``selector``, installed as current."""
    loop = asyncio.SelectorEventLoop(selector)
    asyncio.set_event_loop(loop)
    return loop


async def sample_speed(samples, calibrator):
    """Append ``(time, host speed)`` to ``samples`` every
    :data:`SAMPLE_PERIOD`; ``time`` is ``perf_counter``, which every
    process on the host shares.  The loop blocks while ``calibrator``
    measures, so the helper runs on the CPU this loop leaves idle."""
    while True:
        await asyncio.sleep(SAMPLE_PERIOD)
        speed = calibrator.speed(SAMPLE_ITERATIONS)
        samples.append((perf_counter(), speed))
