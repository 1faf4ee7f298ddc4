"""The system under test for the live workloads: one broker process.

Started by ``live_workloads.py``, never by hand.  Prints one JSON line
``{"port": N}`` once listening on an ephemeral loopback port, then obeys
line commands on stdin:

- ``warm`` — start the calibration helper (see ``calibration.py``),
  before the generator's untimed warm-up, so that neither set-up nor
  the measured window pays for its start;
- ``mark`` — start the measured window (zeroes loop and trace totals and
  the speed samples; from here the loop polls instead of blocking, see
  ``loop.py``);
- ``stop`` — close the broker, print one JSON line of statistics for the
  window, and exit.  End of input counts as ``stop``.

``--kind plain`` runs :class:`repro.broker.Broker` (what ``repro serve``
runs); ``--kind live`` runs an unthrottled
:class:`repro.live.viceroy.LiveBroker`.  ``--trace 1`` wraps the live
stack's layer boundaries (see ``layers.install_broker``).
"""

import argparse
import asyncio
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from calibration import Calibrator  # noqa: E402
from loop import TimedSelector, new_timed_loop, sample_speed  # noqa: E402
from stats import peak_rss_mb  # noqa: E402
from tracing import Tracer  # noqa: E402
import layers  # noqa: E402


def make_broker(kind):
    if kind == "plain":
        from repro.broker.server import Broker

        return Broker(host="127.0.0.1", port=0)
    from repro.live.viceroy import LiveBroker

    return LiveBroker(host="127.0.0.1", port=0, throttle=None)


def window_stats(broker, selector, tracer, spans_path, at_mark):
    """Everything the benchmark reads back from the measured window.

    ``describe`` counters are cumulative; ``at_mark`` is their snapshot
    when the window opened.
    """
    stats = {
        "describe": broker.describe(),
        "at_mark": at_mark,
        "peak_rss_mb": peak_rss_mb(),
        "loop_busy": selector.busy(),
    }
    if tracer is not None:
        stats["counts"] = dict(tracer.counts)
        stats["waits"] = dict(tracer.waits)
        stats["self"] = tracer.layer_self_time()
        stats["encode_s"] = tracer.name_self_time("wire.encode_frame")
        stats["decode_s"] = tracer.name_self_time("FrameDecoder.feed")
        stats["absorb_s"] = tracer.name_self_time("LiveViceroy.absorb")
        stats["spans"] = tracer.spans
        tracer.write_spans(spans_path)
    return stats


async def serve(kind, trace, spans_path, selector):
    broker = make_broker(kind)
    tracer = None
    if trace:
        tracer = Tracer()
        layers.install_broker(tracer, live=kind == "live")
    await broker.start()
    print(json.dumps({"port": broker.address[1]}), flush=True)

    loop = asyncio.get_running_loop()
    stopped = loop.create_future()
    fd = sys.stdin.fileno()
    pending = bytearray()
    at_mark = {}
    speeds = []
    sampling = []  # [calibrator, sampler] once warm

    def on_input():
        data = os.read(fd, 4096)
        pending.extend(data)
        if not data:
            pending.extend(b"\nstop\n")
        while b"\n" in pending:
            line, _, rest = bytes(pending).partition(b"\n")
            pending[:] = rest
            command = line.strip()
            if command == b"warm" and not sampling:
                calibrator = Calibrator()
                sampling[:] = [calibrator, asyncio.ensure_future(
                    sample_speed(speeds, calibrator))]
            elif command == b"mark":
                at_mark.update(broker.describe())
                speeds.clear()
                selector.mark()
                selector.spin = True
                if tracer is not None:
                    tracer.reset()
            elif command == b"stop" and not stopped.done():
                stopped.set_result(None)

    loop.add_reader(fd, on_input)
    try:
        await stopped
    finally:
        loop.remove_reader(fd)
    if sampling:
        calibrator, sampler = sampling
        sampler.cancel()
        calibrator.close()
    stats = window_stats(broker, selector, tracer, spans_path, at_mark)
    stats["speeds"] = speeds
    await broker.close()
    if tracer is not None:
        tracer.uninstall()
    print(json.dumps(stats), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--kind", choices=("plain", "live"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", required=True,
                        help="where a traced broker writes its spans")
    parser.add_argument("--cpu", type=int, default=None,
                        help="pin the broker to this CPU")
    args = parser.parse_args(argv)
    if args.cpu is not None:
        os.sched_setaffinity(0, {args.cpu})
    selector = TimedSelector()
    loop = new_timed_loop(selector)
    try:
        loop.run_until_complete(serve(args.kind, args.trace, args.spans,
                                      selector))
    finally:
        loop.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
