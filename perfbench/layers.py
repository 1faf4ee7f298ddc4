"""Which public functions each layer's spans and counters wrap.

Layers are named after the ``src/repro`` packages.  The sim stack is
traced inside the benchmark process; the live stack inside the broker
process the benchmark launches.  Both report the same set of per-layer
metric names (:data:`PER_LAYER`), with zeros for layers a workload does
not run.
"""

#: Layers whose self time and share every traced run reports.
SIM_LAYERS = ("sim", "net", "trace", "rpc", "estimation", "core", "apps")
LIVE_LAYERS = ("transport", "broker", "live")

#: Counters, by layer metric name.
SIM_COUNTS = (
    "sim.events", "net.packets", "rpc.calls", "rpc.log_queries",
    "estimation.samples", "estimation.availability_calls", "core.rechecks",
    "core.upcalls",
)
LIVE_COUNTS = (
    "transport.frames_out", "transport.bytes_out", "transport.frames_in",
    "broker.messages", "live.reports", "live.availability_calls",
)


def install_sim(tracer):
    """Wrap the sim stack's layer boundaries."""
    from repro.apps.bitstream import BitstreamApp, BitstreamServer, \
        StreamWarden
    from repro.core.upcalls import UpcallDispatcher
    from repro.core.viceroy import Viceroy
    from repro.estimation.bandwidth import ConnectionEstimator
    from repro.estimation.share import ClientShares
    from repro.fleet.client import FleetClient
    from repro.net import link
    from repro.net.link import SimplexLink
    from repro.net.network import Network
    from repro.rpc.connection import RpcConnection
    from repro.rpc.logs import RpcLog
    from repro.sim.kernel import Simulator
    from repro.trace import integrate
    from repro.trace.replay import ReplayTrace

    for attr in ("timeout", "schedule", "call_at", "call_in"):
        tracer.count(Simulator, attr, "sim.events")
    tracer.span(Simulator, "run", "sim")

    tracer.span(Network, "route", "net", counter="net.packets")
    tracer.span(SimplexLink, "send", "net")

    for attr in ("bandwidth_at", "latency_at", "segment_at",
                 "segment_boundaries_after", "mean_bandwidth"):
        tracer.span(ReplayTrace, attr, "trace")
    tracer.span(integrate, "transmission_finish_time", "trace",
                also=(link,))
    tracer.span(integrate, "bytes_transferable", "trace")

    for attr in ("call", "fetch", "push"):
        tracer.generator_span(RpcConnection, attr, "rpc", counter="rpc.calls")
    for attr in ("recent_rate", "bytes_delivered_between"):
        tracer.span(RpcLog, attr, "rpc", counter="rpc.log_queries")

    # A sample is counted where the odyssey policy hands it to the shared
    # estimator; ClientShares passes it on to the connection's estimator,
    # which is timed but not counted again.
    for attr in ("on_round_trip", "on_throughput"):
        tracer.span(ClientShares, attr, "estimation",
                    counter="estimation.samples")
        tracer.span(ConnectionEstimator, attr, "estimation")
    tracer.span(ClientShares, "availability", "estimation",
                counter="estimation.availability_calls")

    tracer.span(Viceroy, "recheck_bandwidth", "core",
                counter="core.rechecks")
    tracer.span(Viceroy, "on_round_trip", "core", counter="core.rechecks")
    tracer.span(UpcallDispatcher, "send", "core", counter="core.upcalls")

    tracer.generator_span(FleetClient, "run", "apps")
    tracer.span(FleetClient, "_on_upcall", "apps")
    tracer.generator_span(BitstreamApp, "run", "apps")
    tracer.generator_span(StreamWarden, "tsop_get_chunk", "apps")
    tracer.span(BitstreamServer, "_get_chunk", "apps")


#: The rpc spans that are log queries (their self time is reported apart).
LOG_QUERY_SPANS = ("RpcLog.recent_rate", "RpcLog.bytes_delivered_between")


def install_broker(tracer, live):
    """Wrap the live stack's boundaries inside the broker process, before
    the broker starts: its ``on_message`` callback is wrapped as each
    accepted channel is opened.  ``live`` adds the live viceroy."""
    from repro.transport import tcp, wire
    from repro.transport.tcp import TcpChannel
    from repro.transport.wire import FrameDecoder

    encode = wire.encode_frame

    def encode_counted(message):
        frame = encode(message)
        tracer.counts["transport.bytes_out"] += len(frame)
        return frame

    tracer.counts.setdefault("transport.bytes_out", 0)
    wire_encode = tracer.timed("wire.encode_frame", "transport",
                                encode_counted, "transport.frames_out")
    tracer.patch(wire, "encode_frame", wire_encode)
    tracer.patch(tcp, "encode_frame", wire_encode)

    feed = FrameDecoder.feed

    def feed_counted(decoder, chunk):
        messages = feed(decoder, chunk)
        tracer.counts["transport.frames_in"] += len(messages)
        return messages

    tracer.counts.setdefault("transport.frames_in", 0)
    tracer.patch(FrameDecoder, "feed",
                 tracer.timed("FrameDecoder.feed", "transport", feed_counted))
    tracer.wait(TcpChannel, "drain", "transport.drain_wait_s")

    opened = TcpChannel.open

    def open_traced(channel, on_message, on_close=None):
        return opened(channel,
                      tracer.timed("Broker.on_message", "broker", on_message,
                                   "broker.messages"),
                      on_close)

    tracer.patch(TcpChannel, "open", open_traced)

    if live:
        from repro.live.viceroy import LiveViceroy

        tracer.span(LiveViceroy, "absorb", "live", counter="live.reports")
        tracer.span(LiveViceroy, "availability", "live",
                    counter="live.availability_calls")


#: Every per-layer metric a traced run reports: (name, unit, better).
PER_LAYER = (
    ("sim.events", "count", "lower"),
    ("sim.self_s", "s", "lower"),
    ("sim.share", "ratio", "lower"),
    ("net.packets", "count", "lower"),
    ("net.self_s", "s", "lower"),
    ("net.share", "ratio", "lower"),
    ("trace.self_s", "s", "lower"),
    ("trace.share", "ratio", "lower"),
    ("rpc.calls", "count", "lower"),
    ("rpc.self_s", "s", "lower"),
    ("rpc.share", "ratio", "lower"),
    ("rpc.log_queries", "count", "lower"),
    ("rpc.log_query_s", "s", "lower"),
    ("estimation.samples", "count", "lower"),
    ("estimation.availability_calls", "count", "lower"),
    ("estimation.self_s", "s", "lower"),
    ("estimation.share", "ratio", "lower"),
    ("core.rechecks", "count", "lower"),
    ("core.upcalls", "count", "lower"),
    ("core.upcalls_per_recheck", "ratio", "higher"),
    ("core.self_s", "s", "lower"),
    ("core.share", "ratio", "lower"),
    ("apps.self_s", "s", "lower"),
    ("apps.share", "ratio", "lower"),
    ("transport.frames_out", "count", "higher"),
    ("transport.bytes_out", "bytes", "higher"),
    ("transport.encode_s", "s", "lower"),
    ("transport.frames_in", "count", "higher"),
    ("transport.decode_s", "s", "lower"),
    ("transport.drain_wait_s", "s", "lower"),
    ("transport.self_s", "s", "lower"),
    ("transport.share", "ratio", "lower"),
    ("broker.messages", "count", "higher"),
    ("broker.relays", "count", "higher"),
    ("broker.upcalls_acked", "count", "higher"),
    ("broker.self_s", "s", "lower"),
    ("broker.share", "ratio", "lower"),
    ("broker.loop_busy", "ratio", "lower"),
    ("gen.loop_busy", "ratio", "lower"),
    ("live.reports", "count", "higher"),
    ("live.availability_calls", "count", "lower"),
    ("live.absorb_s", "s", "lower"),
    ("live.fragments", "count", "higher"),
    ("live.self_s", "s", "lower"),
    ("live.share", "ratio", "lower"),
    ("overhead.ops_per_s", "ops/s", "higher"),
    ("overhead.op_p50_ms", "ms", "lower"),
    ("overhead.op_p90_ms", "ms", "lower"),
)

_SIM_PREFIXES = tuple(f"{layer}." for layer in SIM_LAYERS)


def zero_live_metrics():
    """The live-stack metrics, zero, for a sim workload's traced run."""
    return {name: 0 for name, _, _ in PER_LAYER
            if name.startswith(("transport.", "broker.", "gen.", "live."))}


def zero_sim_metrics():
    """The sim-stack metrics, zero, for a live workload's traced run."""
    return {name: 0 for name, _, _ in PER_LAYER
            if name.startswith(_SIM_PREFIXES)}
