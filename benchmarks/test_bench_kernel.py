"""Microbenchmarks of the substrate: event loop, link, RPC throughput.

Not a paper artifact — these guard the simulator's own performance so the
figure benchmarks stay fast, and demonstrate its capacity.
"""

from repro.net.link import SimplexLink
from repro.net.network import Network
from repro.net.packet import HEADER_BYTES, Packet
from repro.rpc.connection import RpcConnection, RpcService
from repro.rpc.messages import ServerReply
from repro.sim.kernel import Simulator
from repro.trace.replay import ReplayTrace, Segment
from repro.trace.waveforms import (
    HIGH_BANDWIDTH,
    LOW_BANDWIDTH,
    ONE_WAY_LATENCY,
    constant,
)


def test_event_loop_throughput(benchmark):
    def run_events():
        sim = Simulator()
        count = [0]

        def tick(_):
            count[0] += 1

        for i in range(20_000):
            sim.timeout((i % 97) / 10.0).add_callback(tick)
        sim.run()
        return count[0]

    assert benchmark(run_events) == 20_000


def test_process_switch_throughput(benchmark):
    def run_processes():
        sim = Simulator()

        def worker():
            for _ in range(500):
                yield sim.timeout(0.001)

        for _ in range(20):
            sim.process(worker())
        sim.run()
        return sim.now

    benchmark(run_processes)


def test_rpc_fetch_throughput(benchmark):
    def run_fetches():
        sim = Simulator()
        network = Network(sim, constant(HIGH_BANDWIDTH, duration=10_000))
        server = network.add_host("server")
        service = RpcService(sim, server, "svc")
        service.register(
            "get", lambda body: ServerReply(bulk=service.make_bulk(32 * 1024))
        )
        connection = RpcConnection(sim, network, "server", "svc", "bench")

        def client():
            for _ in range(100):
                yield from connection.fetch("get", body_bytes=64)

        sim.process(client())
        sim.run()
        return len(connection.log.throughputs)

    assert benchmark(run_fetches) == 100


def test_link_window_train(benchmark):
    """The link layer alone: bulk-transfer windows of 16 x 2 KiB fragments
    through one modulated link, the next window sent as the last fragment
    of the one before arrives, over a trace that steps down, drops its
    latency and steps back up."""
    windows, fragments = 3000, 16
    trace = ReplayTrace([
        Segment(60, HIGH_BANDWIDTH, 4 * ONE_WAY_LATENCY),
        Segment(60, LOW_BANDWIDTH, ONE_WAY_LATENCY),
        Segment(60, HIGH_BANDWIDTH, ONE_WAY_LATENCY),
    ])

    def run_windows():
        sim = Simulator()
        delivered = [0]
        link = SimplexLink(sim, trace, "bench.down")

        def send_window():
            for index in range(fragments):
                link.send(Packet("server", "client", "bulk",
                                 HEADER_BYTES + 2048, index))

        def on_delivery(packet):
            delivered[0] += 1
            if packet.payload == fragments - 1 \
                    and delivered[0] < windows * fragments:
                send_window()

        link.deliver = on_delivery
        send_window()
        sim.run()
        return delivered[0]

    assert benchmark(run_windows) == windows * fragments
