"""The simulator event loop.

A :class:`Simulator` owns virtual time and a calendar queue of triggered
events (:mod:`repro.sim.calqueue`).  ``run()`` pops events in (time,
sequence) order and processes them; processing an event resumes any
processes waiting on it.

This module is the hot path under every figure in the paper — millions of
events flow through ``run()`` per experiment — so the loop bodies drain
the calendar queue's current bucket in place instead of dispatching
through :meth:`step`, ``timeout()`` constructs its event without an extra
``__init__`` frame, and scheduled calls carry their callback in slots
instead of allocating a closure per call.  Scheduling has three entry
points — :meth:`Simulator.timeout`, :meth:`Simulator.call_at` (and
:meth:`Simulator.call_in`, which goes through it) and
:meth:`Simulator.schedule` — and every event except a plain timeout meets
the queue in ``schedule``; ``timeout`` inlines the same push.
"""

from bisect import insort
from heapq import heappush

from repro.errors import SimulationError
from repro.sim.calqueue import MAX_BUCKETS, CalendarQueue
from repro.sim.events import _PROCESSED, Event, Timeout
from repro.sim.process import Process

#: ``Timeout.__new__`` resolved once; a module global loads faster than a
#: class-attribute lookup in the per-event allocation path.
_timeout_new = Timeout.__new__


class _ScheduledCall(Timeout):
    """A timeout that invokes ``fn(*args)`` when it fires.

    Backing for :meth:`Simulator.call_at`: the callback rides in slots on
    the event itself, so scheduling a call allocates no closure and no
    callback-list entry — one object per call, total.  ``call_at`` writes
    the slots itself instead of running a constructor.
    """

    __slots__ = ("_fn", "_args")

    def _process(self):
        callbacks = self.callbacks
        self.callbacks = _PROCESSED
        self._fn(*self._args)
        if callbacks is not None:
            if type(callbacks) is list:
                for callback in callbacks:
                    callback(self)
            else:
                callbacks(self)


_call_new = _ScheduledCall.__new__


class Simulator:
    """A deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()

        def worker(sim):
            yield sim.timeout(1.5)
            return "done"

        proc = sim.process(worker(sim))
        sim.run()
        assert sim.now == 1.5 and proc.value == "done"
    """

    __slots__ = ("_now", "_queue", "_seq")

    def __init__(self):
        self._now = 0.0
        self._queue = CalendarQueue()
        self._seq = 0

    @property
    def now(self):
        """Current virtual time in seconds."""
        return self._now

    # -- event construction ------------------------------------------------

    def event(self, name=None):
        """Create a fresh, untriggered :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay, value=None):
        """Create an event that fires ``delay`` seconds from now.

        This is the kernel's hottest path — one call per simulated event —
        so the body writes the slots directly instead of running
        ``Timeout.__init__`` (the two must stay field-for-field identical)
        and inlines the queue push instead of calling :meth:`schedule`
        (the push must stay in sync with ``schedule`` and
        ``CalendarQueue.push``): each avoided call frame is measurable on
        every workload.
        """
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        event = _timeout_new(Timeout)
        event.sim = self
        event.delay = delay
        event.callbacks = None
        event._value = value
        event._ok = True
        seq = self._seq
        self._seq = seq - 1
        queue = self._queue
        time = self._now + delay
        idx = int(time * queue._inv)
        cur = queue._cur
        if idx > cur:
            if idx - cur < queue._nb:
                queue._buckets[idx & queue._mask].append((-time, seq, event, time))
                queue._count += 1
            else:
                heappush(queue._over, (time, -seq, event))
                if len(queue._over) > queue._nb and queue._nb < MAX_BUCKETS:
                    queue._resize(queue._nb * 2)
        elif queue._sorted:
            insort(queue._buckets[cur & queue._mask], (-time, seq, event, time))
        else:
            queue._buckets[cur & queue._mask].append((-time, seq, event, time))
        return event

    def process(self, generator, name=None):
        """Start a new :class:`Process` running ``generator``."""
        return Process(self, generator, name=name)

    # -- scheduling --------------------------------------------------------

    def schedule(self, event, delay=0.0, at=None):
        """Queue a triggered ``event`` to be processed ``delay`` seconds on.

        The scheduling entry point for every triggered event: ``succeed``,
        ``fail``, and scheduled calls all land here, so ordering policy
        (FIFO sequence tiebreak, via a down-counting sequence so negated
        ring keys need no per-push negation) lives in one place —
        :meth:`timeout` inlines this body for the same reason it inlines
        the ``Timeout`` constructor.  Keep both in sync with
        ``CalendarQueue.push``.

        ``at``, when given, is the absolute event time and ``delay`` is
        ignored: the event is processed at exactly ``at``, whereas a delay
        lands at ``now + delay``, which for ``delay = at - now`` can differ
        from ``at`` in the last bit.
        """
        if at is None:
            if delay < 0:
                raise SimulationError(
                    f"cannot schedule into the past (delay={delay!r})")
            time = self._now + delay
        elif at < self._now:
            raise SimulationError(
                f"cannot schedule into the past (at={at!r}, now={self._now!r})")
        else:
            time = at
            delay = at - self._now
        seq = self._seq
        self._seq = seq - 1
        queue = self._queue
        cur = queue._cur
        if delay:
            idx = int(time * queue._inv)
            if idx > cur:
                if idx - cur < queue._nb:
                    queue._buckets[idx & queue._mask].append(
                        (-time, seq, event, time))
                    queue._count += 1
                else:
                    heappush(queue._over, (time, -seq, event))
                    if len(queue._over) > queue._nb and queue._nb < MAX_BUCKETS:
                        queue._resize(queue._nb * 2)
                return
        # Zero-delay events (every ``succeed``, every process tick) always
        # land in the cursor's bucket; they skip the index math.
        if queue._sorted:
            insort(queue._buckets[cur & queue._mask], (-time, seq, event, time))
        else:
            queue._buckets[cur & queue._mask].append((-time, seq, event, time))

    def call_at(self, when, callback, *args, exact=False):
        """Run ``callback(*args)`` at absolute time ``when``.

        Returns the underlying event; triggering machinery is reused so the
        call is ordered deterministically with other events at ``when``.
        The call is scheduled as the delay ``when - now``, so it fires at
        ``now + (when - now)``; ``exact=True`` fires it at ``when`` itself,
        for callers that computed that time to the bit in advance.
        """
        if when < self._now:
            raise SimulationError(f"call_at({when!r}) is in the past (now={self._now!r})")
        # Slot writes mirror Timeout.__init__ (keep in sync) without the
        # constructor frame.
        event = _call_new(_ScheduledCall)
        event.sim = self
        event.delay = delay = when - self._now
        event.callbacks = None
        event._value = None
        event._ok = True
        event._fn = callback
        event._args = args
        self.schedule(event, delay, when if exact else None)
        return event

    def call_in(self, delay, callback, *args):
        """Run ``callback(*args)`` after ``delay`` seconds."""
        return self.call_at(self._now + delay, callback, *args)

    # -- execution ---------------------------------------------------------

    def peek(self):
        """Time of the next event, or ``None`` if the queue is empty."""
        head = self._queue.peek()
        return None if head is None else head[0]

    def step(self):
        """Process exactly one event.

        Raises :class:`SimulationError` if the queue is empty.
        """
        if not len(self._queue):
            raise SimulationError("step() on an empty event queue")
        self._now, _, event = self._queue.pop()
        event._process()

    def run(self, until=None):
        """Run until the queue drains, or until time/event ``until``.

        ``until`` may be:

        - ``None`` — run to exhaustion;
        - a number — advance to exactly that time (events at later times stay
          queued and ``now`` is left equal to ``until``);
        - an :class:`Event` — run until that event has been processed, and
          return its value.

        The loops below drain the calendar queue's current bucket in place
        (``queue._enter`` hands back the bucket, sorted on negated keys so
        the earliest event is last) instead of calling ``pop`` per event:
        ``bucket.pop()`` is one O(1) C call, zero-delay events scheduled
        by callbacks insort into the live bucket, and — because the
        queue's ``_count`` excludes the cursor's bucket — no counter is
        touched per event, so a propagating callback exception leaves the
        queue exactly consistent.  Exact ``Timeout`` and ``_ScheduledCall``
        instances (the overwhelming majority of events; neither can fail)
        have their tri-state callback dispatch inlined, saving the
        ``_process`` frame; every other event type dispatches virtually.
        """
        queue = self._queue
        if until is None:
            enter = queue._enter
            timeout_cls, call_cls = Timeout, _ScheduledCall
            while True:
                bucket = enter()
                if bucket is None:
                    return None
                pop = bucket.pop
                while bucket:
                    item = pop()
                    self._now = item[3]
                    event = item[2]
                    if type(event) is timeout_cls:
                        callbacks = event.callbacks
                        event.callbacks = _PROCESSED
                        if callbacks is not None:
                            if type(callbacks) is list:
                                for callback in callbacks:
                                    callback(event)
                            else:
                                callbacks(event)
                    elif type(event) is call_cls:
                        callbacks = event.callbacks
                        event.callbacks = _PROCESSED
                        event._fn(*event._args)
                        if callbacks is not None:
                            if type(callbacks) is list:
                                for callback in callbacks:
                                    callback(event)
                            else:
                                callbacks(event)
                    else:
                        event._process()
        if isinstance(until, Event):
            return self._run_until_event(until)
        deadline = float(until)
        if deadline < self._now:
            raise SimulationError(f"run(until={deadline!r}) is in the past (now={self._now!r})")
        neg_deadline = -deadline
        enter = queue._enter
        while True:
            bucket = enter()
            if bucket is None or bucket[-1][0] < neg_deadline:
                break
            while bucket:
                item = bucket[-1]
                if item[0] < neg_deadline:
                    break
                del bucket[-1]
                self._now = item[3]
                event = item[2]
                if type(event) is Timeout:
                    callbacks = event.callbacks
                    event.callbacks = _PROCESSED
                    if callbacks is not None:
                        if type(callbacks) is list:
                            for callback in callbacks:
                                callback(event)
                        else:
                            callbacks(event)
                elif type(event) is _ScheduledCall:
                    callbacks = event.callbacks
                    event.callbacks = _PROCESSED
                    event._fn(*event._args)
                    if callbacks is not None:
                        if type(callbacks) is list:
                            for callback in callbacks:
                                callback(event)
                        else:
                            callbacks(event)
                else:
                    event._process()
        self._now = deadline
        return None

    def _run_until_event(self, event):
        done = []
        event.add_callback(done.append)
        pop = self._queue.pop
        while not done:
            try:
                self._now, _, popped = pop()
            except SimulationError:
                raise SimulationError(
                    f"queue drained before {event!r} was processed") from None
            popped._process()
        if not event.ok:
            event.defuse()
            raise event.value
        return event.value
