"""Boundary tracing for the benchmark's traced runs.

The tracer wraps public functions of the program from the outside — the
program itself is never edited — and records, at each wrapped call:

- a *span* (name, start, end, parent span) when the call is timed;
- a *count* under a per-layer metric name.

Spans nest through a stack, so a layer's self time is a span's duration
minus the part its child spans cover.  Every span updates the self-time
totals as it closes; only the first :data:`SPAN_CAPACITY` spans are also
kept in memory for :meth:`Tracer.write_spans`, which bounds the memory a
traced run takes (the number that did not fit is reported).

Generator functions (the simulator's processes) are timed per resume:
each ``send``/``throw`` into the wrapped generator is one span, so time a
process spends suspended in the simulator is never charged to it.
Coroutines cannot nest on a stack across an ``await``; :meth:`wait` times
them as waiting, not as self time.
"""

import json
import os
from array import array
from time import perf_counter

#: Spans kept in memory per traced process (24 bytes each).
SPAN_CAPACITY = 200_000

_INHERITED = object()


class Tracer:
    """Span stack, per-name self time and counters for one process."""

    def __init__(self, capacity=SPAN_CAPACITY):
        self.names = []  # span name per name id
        self.layers = []  # layer per name id
        self.self_time = []  # accumulated self seconds per name id
        self.counts = {}  # metric name -> count
        self.waits = {}  # metric name -> seconds spent awaiting
        self.spans = 0  # spans opened (kept or not)
        self._stack = []  # [name id, start, child seconds, span index]
        self._capacity = capacity
        self._starts = array("d", bytes(8 * capacity))
        self._ends = array("d", bytes(8 * capacity))
        self._name_ids = array("i", bytes(4 * capacity))
        self._parents = array("i", bytes(4 * capacity))
        self._patches = []

    # -- recording ----------------------------------------------------------

    def _name_id(self, name, layer):
        self.names.append(name)
        self.layers.append(layer)
        self.self_time.append(0.0)
        return len(self.names) - 1

    def timed(self, name, layer, fn, counter=None):
        """Return ``fn`` wrapped as a ``layer`` span named ``name``;
        ``counter`` (a metric name) counts its calls."""
        nid = self._name_id(name, layer)
        stack = self._stack
        counts = self.counts
        if counter is not None:
            counts.setdefault(counter, 0)
        self_time = self.self_time
        starts, ends = self._starts, self._ends
        name_ids, parents = self._name_ids, self._parents
        capacity = self._capacity
        tracer = self

        def wrapper(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            index = tracer.spans
            tracer.spans = index + 1
            frame = [nid, perf_counter(), 0.0, index]
            parent = stack[-1][3] if stack else -1
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - frame[1]
                self_time[nid] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                if index < capacity:
                    starts[index] = frame[1]
                    ends[index] = end
                    name_ids[index] = nid
                    parents[index] = parent

        return wrapper

    def timed_generator(self, name, layer, fn, counter=None):
        """Wrap a generator function: one span per resume."""
        step = self.timed(name, layer, _resume)
        counts = self.counts
        if counter is not None:
            counts.setdefault(counter, 0)

        def drive(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            return _proxy(fn(*args, **kwargs), step)

        return drive

    # -- installing wrappers --------------------------------------------------

    def patch(self, owner, attr, replacement):
        """Set ``owner.attr`` to ``replacement`` until :meth:`uninstall`."""
        # Class attributes are saved from the class's own namespace, so an
        # inherited method is restored by deleting the override.
        original = owner.__dict__.get(attr, _INHERITED)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def span(self, owner, attr, layer, counter=None, also=()):
        """Time ``owner.attr`` as a ``layer`` span; ``counter`` counts calls.

        ``also`` lists further modules that imported the same function by
        name, so their references are wrapped too.
        """
        fn = getattr(owner, attr)
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        wrapped = self.timed(name, layer, fn, counter)
        self.patch(owner, attr, wrapped)
        for module in also:
            self.patch(module, attr, wrapped)

    def generator_span(self, owner, attr, layer, counter=None):
        """Time each resume of generator function ``owner.attr``."""
        fn = getattr(owner, attr)
        name = f"{owner.__name__}.{attr}"
        self.patch(owner, attr,
                    self.timed_generator(name, layer, fn, counter))

    def count(self, owner, attr, counter):
        """Count calls to ``owner.attr`` without timing them."""
        fn = getattr(owner, attr)
        counts = self.counts
        counts.setdefault(counter, 0)

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        self.patch(owner, attr, counted)

    def wait(self, owner, attr, metric):
        """Time how long awaiting coroutine method ``owner.attr`` takes."""
        fn = getattr(owner, attr)
        waits = self.waits
        waits.setdefault(metric, 0.0)

        async def waited(*args, **kwargs):
            started = perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                waits[metric] += perf_counter() - started

        self.patch(owner, attr, waited)

    def uninstall(self):
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- reading --------------------------------------------------------------

    def layer_self_time(self):
        """Self seconds per layer."""
        totals = {}
        for layer, seconds in zip(self.layers, self.self_time):
            totals[layer] = totals.get(layer, 0.0) + seconds
        return totals

    def name_self_time(self, *names):
        """Summed self seconds of the named spans."""
        return sum(seconds for name, seconds in zip(self.names, self.self_time)
                   if name in names)

    def reset(self):
        """Zero every total and drop the kept spans; wrappers stay."""
        self.self_time[:] = [0.0] * len(self.self_time)
        for key in self.counts:
            self.counts[key] = 0
        for key in self.waits:
            self.waits[key] = 0.0
        self.spans = 0

    def write_spans(self, path):
        """Write kept spans as JSON lines: a header, then one span a line.

        Each span line is ``[index, name id, start, end, parent index]``
        with times in seconds on the process's ``perf_counter`` clock; the
        header maps name ids to names and layers.
        """
        kept = min(self.spans, self._capacity)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps({
                "names": self.names, "layers": self.layers,
                "spans": self.spans, "kept": kept,
                "dropped": self.spans - kept,
            }) + "\n")
            starts, ends = self._starts, self._ends
            name_ids, parents = self._name_ids, self._parents
            for index in range(kept):
                fh.write(f"[{index},{name_ids[index]},{starts[index]!r},"
                         f"{ends[index]!r},{parents[index]}]\n")


def _resume(generator, value, exc):
    """Advance ``generator`` once (the timed unit of a generator span)."""
    if exc is None:
        return generator.send(value)
    return generator.throw(exc)


def _proxy(generator, step):
    """``yield from generator`` with every resume going through ``step``."""
    value, exc = None, None
    while True:
        try:
            yielded = step(generator, value, exc)
        except StopIteration as stop:
            return stop.value
        try:
            value, exc = (yield yielded), None
        except GeneratorExit:
            generator.close()
            raise
        except BaseException as caught:  # noqa: BLE001 - forwarded into the wrapped generator
            value, exc = None, caught

