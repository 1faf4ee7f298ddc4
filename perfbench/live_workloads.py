"""The live workloads: ``broker-rpc`` and ``live-bulk``.

The broker runs in its own process (``broker_proc.py``); this process is
the load generator, with two connections on its own event loop, so the
two processes can use the two cores a small host has.  All traffic
crosses the loopback interface.

- ``broker-rpc``: a plain broker.  Each connection keeps
  :data:`IN_FLIGHT` calls outstanding, closed loop; every
  :data:`RELAY_EVERY`-th call is relayed to the peer connection's
  registered operation, the rest are broker-local ``echo``.
- ``live-bulk``: an unthrottled live broker.  Each connection repeatedly
  opens and pulls a :data:`TRANSFER_BYTES` transfer in 64 KiB windows of
  8 KiB fragments, reporting every fragment and window to the live
  viceroy as ``BulkReceiver`` does by default.

Each connection registers one bandwidth window before the run; a single
closing report violates both, and each upcall must be delivered to its
connection and acknowledged to the broker.
"""

import asyncio
import json
import os
import random
import statistics
import sys
from time import perf_counter

from calibration import Calibrator
from loop import TimedSelector, new_timed_loop, sample_speed
from stats import percentile
import layers

HERE = os.path.dirname(os.path.abspath(__file__))

CONNECTIONS = 2
IN_FLIGHT = 16
RELAY_EVERY = 8
TRANSFER_BYTES = 1024 * 1024
WINDOW_BYTES = 64 * 1024
FRAGMENT_BYTES = 8 * 1024
#: Registered windows span [0, WINDOW_UPPER]; the closing report exceeds it.
#: Far above any loopback rate, so no estimate violates it mid-run.
WINDOW_UPPER = 1.0e15
#: Untimed load before the measured window, seconds.
WARMUP_SECONDS = 0.5
#: Set-up (broker start through registrations) is timed this many times.
SETUP_REPEATS = 7
#: Bound on any single wait on the broker, seconds.
WAIT_SECONDS = 30.0
#: End-to-end figures are medians over windows of this many seconds.
WINDOW_SECONDS = 2.0
#: A generator loop busier than this may be the bottleneck itself.
SATURATED_BUSY = 0.95


def pick_cpus():
    """``(broker CPU, generator CPU)``: one core each when there are two."""
    cpus = sorted(os.sched_getaffinity(0))
    return (cpus[0], cpus[1]) if len(cpus) >= CONNECTIONS else (None, None)


class BrokerProcess:
    """One ``broker_proc.py`` child and its control pipe."""

    def __init__(self, kind, trace, spans_path, cpu):
        self.kind = kind
        self.trace = trace
        self.spans_path = spans_path
        self.cpu = cpu
        self.proc = None
        self.port = None

    async def start(self):
        pin = [] if self.cpu is None else ["--cpu", str(self.cpu)]
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable, os.path.join(HERE, "broker_proc.py"),
            "--kind", self.kind, "--trace", str(self.trace),
            "--spans", self.spans_path, *pin,
            stdin=asyncio.subprocess.PIPE, stdout=asyncio.subprocess.PIPE)
        line = await asyncio.wait_for(self.proc.stdout.readline(),
                                      WAIT_SECONDS)
        if not line:
            raise RuntimeError("broker process exited before listening")
        self.port = json.loads(line)["port"]
        return self

    def command(self, text):
        self.proc.stdin.write(text.encode() + b"\n")

    async def stop(self):
        """Stop the broker; returns its window statistics."""
        self.command("stop")
        await self.proc.stdin.drain()
        line = await asyncio.wait_for(self.proc.stdout.readline(),
                                      WAIT_SECONDS)
        await asyncio.wait_for(self.proc.wait(), WAIT_SECONDS)
        return json.loads(line)

    async def kill(self):
        """Make sure the child is gone (idempotent)."""
        if self.proc is not None and self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()


class Session:
    """A started broker plus the generator's connected clients."""

    def __init__(self, broker, clients, peers, receivers):
        self.broker = broker
        self.clients = clients
        self.peers = peers  # registered op of each client (broker-rpc)
        self.receivers = receivers  # BulkReceiver per client (live-bulk)
        self.upcalls = [asyncio.Event() for _ in clients]
        for client, event in zip(clients, self.upcalls):
            client.on_upcall(lambda body, event=event: event.set())

    async def close(self):
        await asyncio.gather(*(c.close() for c in self.clients),
                             return_exceptions=True)


async def open_session(workload, seed, trace, out_dir, cpu):
    """Start a broker, connect, hand-shake and register; the set-up."""
    from repro.broker.client import BrokerClient
    from repro.live.bulk import BulkReceiver

    kind = "plain" if workload == "broker-rpc" else "live"
    broker = BrokerProcess(kind, trace,
                           os.path.join(out_dir, f"spans-{workload}.jsonl"),
                           cpu)
    try:
        await broker.start()
        clients = [BrokerClient("127.0.0.1", broker.port,
                                f"gen-{seed}-{i}") for i in range(CONNECTIONS)]
        await asyncio.wait_for(
            asyncio.gather(*(c.connect() for c in clients)), WAIT_SECONDS)
        peers, receivers = [], []
        for client in clients:
            if workload == "broker-rpc":
                peers.append(await client.register_op("echo",
                                                      lambda body: body))
            else:
                receivers.append(BulkReceiver(client))
            await client.request(0.0, WINDOW_UPPER)
    except BaseException:
        await broker.kill()
        raise
    return Session(broker, clients, peers, receivers)


class Load:
    """Counts and samples of one load phase."""

    def __init__(self):
        self.ops = 0
        self.latencies = []
        self.done_at = []  # completion time of each latency sample
        self.receiver_seconds = []  # live-bulk: each report's own window time
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, problem):
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(problem)


def call_bodies(seed, count=256):
    """Seeded request bodies: small dicts of a few fields."""
    rng = random.Random(seed)
    bodies = []
    for i in range(count):
        size = rng.randint(4, 64)
        bodies.append({"n": i, "tag": "".join(
            rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(size)),
            "x": rng.random()})
    return bodies


async def rpc_caller(session, index, slot, bodies, deadline, load, timed):
    client = session.clients[index]
    peer = session.peers[(index + 1) % len(session.peers)]
    i = slot
    while perf_counter() < deadline:
        op = peer if i % RELAY_EVERY == RELAY_EVERY - 1 else "echo"
        body = bodies[i % len(bodies)]
        started = perf_counter()
        load.attempted += 1
        try:
            # No per-call timer (asyncio.wait_for's cost would load the
            # generator); drive() bounds the whole phase instead.
            reply = await client.call(op, body=body, timeout=None)
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            load.fail(f"{op}: {exc!r}")
        else:
            if timed:
                done = perf_counter()
                load.latencies.append(done - started)
                load.done_at.append(done)
            if reply != body:
                load.fail(f"{op} returned {reply!r} for {body!r}")
            else:
                load.ops += 1
        i += IN_FLIGHT


async def bulk_connection(session, index, seed, deadline, load, timed):
    """Open and pull whole transfers, one at a time, until ``deadline``.

    A window is timed here, from its ``WindowRequest`` leaving to the
    reply to its throughput report: the receiver's own ``seconds`` in that
    report is kept only as an information figure.
    """
    from repro.broker.server import REPORT_OP
    from repro.rpc.messages import WindowRequest

    client = session.clients[index]
    receiver = session.receivers[index]
    call, send = client.call, client.channel.send
    requested = [None]

    def stamping_send(message):
        if isinstance(message, WindowRequest):
            requested[0] = perf_counter()
        return send(message)

    async def reporting_call(op, body=None, *args, **kwargs):
        reply = await call(op, body, *args, **kwargs)
        if timed and op == REPORT_OP and body.get("kind") == "throughput":
            done = perf_counter()
            load.latencies.append(done - requested[0])
            load.done_at.append(done)
            load.receiver_seconds.append(body["seconds"])
        return reply

    client.call, client.channel.send = reporting_call, stamping_send
    n = 0
    try:
        while perf_counter() < deadline:
            n += 1
            load.attempted += 1
            name = f"blob-{seed}-{index}-{n}"
            try:
                transfer = await receiver.open(name, TRANSFER_BYTES)
                result = await receiver.fetch(
                    transfer, TRANSFER_BYTES, window_bytes=WINDOW_BYTES,
                    fragment_bytes=FRAGMENT_BYTES, timeout=None)
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                load.fail(f"transfer {name}: {exc!r}")
                continue
            if (result.nbytes != TRANSFER_BYTES
                    or result.windows != TRANSFER_BYTES // WINDOW_BYTES
                    or result.fragments != TRANSFER_BYTES // FRAGMENT_BYTES
                    or None in result.levels):
                load.fail(f"transfer {name}: {result!r} "
                          f"levels={result.levels}")
            elif timed:
                load.ops += result.fragments
    finally:
        del client.call, client.channel.send


async def drive(workload, session, seed, seconds, timed):
    """Apply the workload's load for ``seconds``; returns the Load."""
    load = Load()
    started = perf_counter()
    deadline = started + seconds
    load.started = started
    if workload == "broker-rpc":
        bodies = call_bodies(seed)
        tasks = [rpc_caller(session, index, slot, bodies, deadline, load,
                            timed)
                 for index in range(CONNECTIONS) for slot in range(IN_FLIGHT)]
    else:
        tasks = [bulk_connection(session, index, seed, deadline, load, timed)
                 for index in range(CONNECTIONS)]
    try:
        await asyncio.wait_for(asyncio.gather(*tasks), seconds + WAIT_SECONDS)
    except asyncio.TimeoutError:
        load.fail(f"load still running {WAIT_SECONDS} s past its deadline")
    load.wall = perf_counter() - started
    return load


async def close_session(session, load):
    """Violate every window, check each upcall lands and is acknowledged,
    then stop the broker; returns its window statistics."""
    first = session.clients[0]
    load.attempted += len(session.clients)
    try:
        await first.call("__report__", {"resource": "bandwidth",
                                         "level": WINDOW_UPPER * 2},
                         timeout=WAIT_SECONDS)
        await asyncio.wait_for(
            asyncio.gather(*(e.wait() for e in session.upcalls)),
            WAIT_SECONDS)
        # A round trip after the acknowledgement, on the same connection,
        # means the broker has read the acknowledgement.
        await asyncio.gather(*(c.ping(timeout=WAIT_SECONDS)
                               for c in session.clients))
    except Exception as exc:  # noqa: BLE001 - counted, then shut down
        load.fail(f"closing violation: {exc!r}")
    await session.close()
    stats = await session.broker.stop()
    described = stats["describe"]
    lost = len(session.clients) - sum(1 for e in session.upcalls
                                      if e.is_set())
    unacked = described["upcalls_sent"] - described["upcalls_acked"]
    if described["upcalls_sent"] != len(session.clients) or lost or unacked:
        load.fail(f"upcalls: sent {described['upcalls_sent']}, lost {lost}, "
                  f"unacknowledged {unacked}")
    if described["errors_returned"]:
        load.fail(f"broker returned {described['errors_returned']} errors")
    return stats


async def measured_phase(workload, seed, seconds, trace, out_dir, selector,
                         calibrator, setups, cpu):
    """Set up ``setups`` times (keeping the last), warm up, measure."""
    setup_times = []
    session = None
    for attempt in range(setups):
        started = perf_counter()
        session = await open_session(workload, seed, trace, out_dir, cpu)
        setup_times.append(perf_counter() - started)
        if attempt < setups - 1:
            await session.close()
            try:
                await session.broker.stop()
            finally:
                await session.broker.kill()
    try:
        session.broker.command("warm")
        selector.spin = True
        warm = await drive(workload, session, seed, WARMUP_SECONDS, False)
        session.broker.command("mark")
        selector.mark()
        speeds = []
        sampler = asyncio.ensure_future(sample_speed(speeds, calibrator))
        load = await drive(workload, session, seed, seconds, True)
        selector.spin = False
        sampler.cancel()
        load.seconds = seconds
        load.gen_speeds = speeds
        gen_busy = selector.busy()
        load.attempted += warm.attempted
        load.failed += warm.failed
        load.problems += warm.problems
        stats = await close_session(session, load)
    finally:
        selector.spin = False
        await session.broker.kill()
    load.windows = per_window(load, stats)
    return load, stats, gen_busy, setup_times


def median_speed(samples, lo, hi):
    """Median host speed of the ``(time, speed)`` samples in [lo, hi): a
    kernel run slowed by an interrupt does not move it."""
    inside = [speed for t, speed in samples if lo <= t < hi]
    return statistics.median(inside or [speed for _, speed in samples])


def combined_speed(load, stats, lo, hi):
    """Host speed in [lo, hi): the harmonic mean of the broker's and the
    generator's, since a call or fragment spends its time in both."""
    return 2.0 / (1.0 / median_speed(stats["speeds"], lo, hi)
                  + 1.0 / median_speed(load.gen_speeds, lo, hi))


def per_window(load, stats):
    """``(rate, p50, p90)`` of each :data:`WINDOW_SECONDS` window of the
    measured phase, in reference seconds: each window is scaled by its
    :func:`combined_speed`."""
    windows = max(1, int(load.seconds // WINDOW_SECONDS))
    buckets = [[] for _ in range(windows)]
    for done, latency in zip(load.done_at, load.latencies):
        w = int((done - load.started) // WINDOW_SECONDS)
        if w < windows:
            buckets[w].append(latency)
    ops_per_sample = load.ops / max(1, len(load.latencies))
    rows = []
    for w, latencies in enumerate(buckets):
        if not latencies:
            continue
        lo = load.started + w * WINDOW_SECONDS
        speed = combined_speed(load, stats, lo, lo + WINDOW_SECONDS)
        rows.append((ops_per_sample * len(latencies) / WINDOW_SECONDS / speed,
                     speed * percentile(latencies, 0.50),
                     speed * percentile(latencies, 0.90)))
    return rows


def end_to_end(load, stats, setup_times):
    """Medians over the measured phase's windows, in reference seconds
    (see calibration): a window disturbed by the host moves no median.
    A set-up is too short for a calibration of its own, so it is scaled
    at the measured phase's speed."""
    rows = load.windows
    speed = combined_speed(load, stats, load.started,
                           load.started + load.seconds)
    return {
        "ops_per_s": statistics.median(r[0] for r in rows),
        "op_p50_ms": 1000.0 * statistics.median(r[1] for r in rows),
        "op_p90_ms": 1000.0 * statistics.median(r[2] for r in rows),
        "setup_s": statistics.median(setup_times) * speed,
        "peak_rss_mb": stats["peak_rss_mb"],
    }


def live_layer_metrics(load, stats, gen_busy):
    counts = stats["counts"]
    described, at_mark = stats["describe"], stats["at_mark"]
    selfs = stats["self"]
    metrics = {name: counts.get(name, 0) for name in layers.LIVE_COUNTS}
    for layer in layers.LIVE_LAYERS:
        metrics[f"{layer}.self_s"] = selfs.get(layer, 0.0)
        metrics[f"{layer}.share"] = selfs.get(layer, 0.0) / load.wall
    metrics.update({
        "transport.encode_s": stats["encode_s"],
        "transport.decode_s": stats["decode_s"],
        "transport.drain_wait_s": stats["waits"]["transport.drain_wait_s"],
        "broker.relays": described["calls_relayed"]
        - at_mark["calls_relayed"],
        "broker.upcalls_acked": described["upcalls_acked"],
        "broker.loop_busy": stats["loop_busy"],
        "gen.loop_busy": gen_busy,
        "live.absorb_s": stats["absorb_s"],
        "live.fragments": described.get("bulk", {}).get(
            "fragments_streamed", 0)
        - at_mark.get("bulk", {}).get("fragments_streamed", 0),
    })
    return metrics


async def run_async(workload, seed, seconds, trace, out_dir, selector,
                    calibrator, broker_cpu):
    info = {"transport": "TCP over loopback (127.0.0.1)",
            "connections": CONNECTIONS}
    if not trace:
        load, stats, gen_busy, setups = await measured_phase(
            workload, seed, seconds, 0, out_dir, selector, calibrator,
            SETUP_REPEATS, broker_cpu)
        metrics = end_to_end(load, stats, setups)
        attempted, failed, problems = load.attempted, load.failed, \
            load.problems
    else:
        # Untraced, then traced, each on a fresh broker; the difference of
        # their end-to-end figures is the tracing overhead.
        plain, plain_stats, _, plain_setups = await measured_phase(
            workload, seed, seconds / 2, 0, out_dir, selector, calibrator, 1,
            broker_cpu)
        load, stats, gen_busy, setups = await measured_phase(
            workload, seed, seconds / 2, 1, out_dir, selector, calibrator, 1,
            broker_cpu)
        plain_e2e = end_to_end(plain, plain_stats, plain_setups)
        traced_e2e = end_to_end(load, stats, setups)
        metrics = live_layer_metrics(load, stats, gen_busy)
        metrics.update(layers.zero_sim_metrics())
        metrics.update({f"overhead.{name}": traced_e2e[name] - plain_e2e[name]
                        for name in ("ops_per_s", "op_p50_ms", "op_p90_ms")})
        info["spans"] = stats["spans"]
        attempted = plain.attempted + load.attempted
        failed = plain.failed + load.failed
        problems = plain.problems + load.problems
    broker_busy = stats["loop_busy"]
    info.update({
        "broker": stats["describe"],
        "broker_loop_busy": broker_busy,
        "gen_loop_busy": gen_busy,
        "generator_saturated": gen_busy > SATURATED_BUSY
        and gen_busy > broker_busy,
        "setup_samples_s": setups,
        "latency_samples": len(load.latencies),
        "windows": len(load.windows),
        "broker_speed": median_speed(stats["speeds"], load.started,
                                   load.started + load.seconds),
        "gen_speed": median_speed(load.gen_speeds, load.started,
                                load.started + load.seconds),
        "host_ops_per_s": load.ops / load.wall,
        "host_op_p50_ms": 1000.0 * percentile(load.latencies, 0.50),
        "host_op_p90_ms": 1000.0 * percentile(load.latencies, 0.90),
    })
    if load.receiver_seconds:
        info["receiver_window_p50_ms"] = \
            1000.0 * percentile(load.receiver_seconds, 0.50)
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems, "info": info}


def run(workload, seed, seconds, trace, out_dir):
    """Run a live workload; returns a result dict for ``run.py``."""
    # Broker and generator each get a core of their own, so neither is
    # migrated onto the other's.
    broker_cpu, generator_cpu = pick_cpus()
    if generator_cpu is not None:
        os.sched_setaffinity(0, {generator_cpu})
    selector = TimedSelector()
    loop = new_timed_loop(selector)
    try:
        with Calibrator() as calibrator:
            return loop.run_until_complete(
                run_async(workload, seed, seconds, trace, out_dir, selector,
                          calibrator, broker_cpu))
    finally:
        loop.close()
        asyncio.set_event_loop(None)
