"""Tests for the Ethernet substrate."""

import pytest

from repro.common.errors import ConfigurationError
from repro.common.units import gbps
from repro.hw.net import Frame, Link, Network, NetworkPort
from repro.sim import Simulator


class TestFrame:
    def test_wire_size_includes_overhead(self):
        frame = Frame("a", "b", payload=None, payload_size=1500)
        assert frame.wire_size == 1538

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            Frame("a", "b", None, payload_size=-1)

    def test_frame_ids_unique(self):
        a = Frame("a", "b", None, 10)
        b = Frame("a", "b", None, 10)
        assert a.frame_id != b.frame_id


class TestLink:
    def test_serialization_delay_100g(self):
        sim = Simulator()
        link = Link(sim, bandwidth=gbps(100), propagation=0)
        frame = Frame("a", "b", None, payload_size=1500 - 38)
        assert link.serialization_delay(frame) == pytest.approx(1500 / gbps(100))

    def test_transmit_delivers(self):
        sim = Simulator()
        link = Link(sim, bandwidth=gbps(100), propagation=1e-6)

        def scenario():
            yield from link.transmit(Frame("a", "b", "hello", 100))
            got = yield link.receive()
            return got.payload, sim.now

        payload, now = sim.run_process(scenario())
        assert payload == "hello"
        assert now == pytest.approx(138 / gbps(100) + 1e-6)

    def test_back_to_back_serializes(self):
        sim = Simulator()
        link = Link(sim, bandwidth=gbps(100), propagation=0)
        arrivals = []

        def sender():
            for i in range(3):
                sim.process(link.transmit(Frame("a", "b", i, 1462)))
            if False:
                yield

        def receiver():
            for _ in range(3):
                yield link.receive()
                arrivals.append(sim.now)

        sim.process(sender())
        sim.process(receiver())
        sim.run()
        gap = 1500 / gbps(100)
        assert arrivals[1] - arrivals[0] == pytest.approx(gap)
        assert arrivals[2] - arrivals[1] == pytest.approx(gap)

    def test_loss_function_drops(self):
        sim = Simulator()
        link = Link(sim, loss_fn=lambda f: True)

        def scenario():
            yield from link.transmit(Frame("a", "b", None, 100))

        sim.run_process(scenario())
        assert link.frames_dropped == 1
        assert len(link.rx_queue) == 0

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Link(Simulator(), bandwidth=0)
        with pytest.raises(ValueError):
            Link(Simulator(), propagation=-1)

    def test_stats_expose_drops(self):
        sim = Simulator()
        drops = [True, False]
        link = Link(sim, loss_fn=lambda f: drops.pop(0))

        def scenario():
            yield from link.transmit(Frame("a", "b", None, 100))
            yield from link.transmit(Frame("a", "b", None, 100))

        sim.run_process(scenario())
        assert link.frames_sent == 2
        assert link.frames_dropped == 1
        assert link.frames_corrupted == 0
        assert link.frames_delivered == 1
        assert link.bytes_sent == 2 * 138


class TestNetwork:
    def test_two_endpoints_roundtrip(self):
        sim = Simulator()
        net = Network(sim)
        client = net.endpoint("client")
        server = net.endpoint("server")

        def server_loop():
            request = yield server.receive()
            yield from server.send(
                Frame("server", request.src, f"re:{request.payload}", 64)
            )

        def client_req():
            yield from client.send(Frame("client", "server", "ping", 64))
            reply = yield client.receive()
            return reply.payload, sim.now

        sim.process(server_loop())
        proc = sim.process(client_req())
        sim.run()
        payload, rtt = proc.value
        assert payload == "re:ping"
        assert rtt == pytest.approx(net.min_rtt(64, 64), rel=0.01)

    def test_unknown_destination_dropped_by_switch(self):
        sim = Simulator()
        net = Network(sim)
        a = net.endpoint("a")

        def scenario():
            yield from a.send(Frame("a", "nowhere", None, 64))

        sim.run_process(scenario())
        assert net.switch.frames_forwarded == 0

    def test_port_without_route(self):
        sim = Simulator()
        port = NetworkPort(sim, "lonely")
        with pytest.raises(ConfigurationError):
            sim.run_process(port.send(Frame("lonely", "x", None, 10)))

    def test_min_rtt_scales_with_propagation(self):
        sim = Simulator()
        near = Network(sim, propagation=1e-6)
        far = Network(sim, propagation=100e-6)
        assert far.min_rtt(64, 64) > near.min_rtt(64, 64)

    def test_port_stats_aggregate_tx_and_rx(self):
        sim = Simulator()
        net = Network(sim)
        a = net.endpoint("a")
        b = net.endpoint("b")

        def sender():
            yield from a.send(Frame("a", "b", "one", 64))
            yield from a.send(Frame("a", "b", "two", 64))

        def receiver():
            yield b.receive()
            yield b.receive()

        sim.process(sender())
        sim.process(receiver())
        sim.run()
        assert a.route().frames_sent == 2
        assert a.route().frames_dropped == 0
        assert b.rx_link.frames_delivered == 2
        assert sim.telemetry.counter("net.port.a.tx_frames").value == 2
