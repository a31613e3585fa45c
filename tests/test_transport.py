"""Tests for UDP, TCP, RDMA, HOMA, and the RPC layer."""

import pytest

from repro.common.errors import ProtocolError
from repro.hw.net import Network
from repro.sim import Simulator
from repro.transport import (
    HomaSocket,
    RdmaNic,
    RpcClient,
    RpcError,
    RpcServer,
    TcpStack,
    UdpSocket,
)
from repro.transport.tcp import RTO


def make_net(sim):
    return Network(sim)


class TestUdp:
    def test_small_datagram(self):
        sim = Simulator()
        net = make_net(sim)
        a = UdpSocket(sim, net.endpoint("a"))
        b = UdpSocket(sim, net.endpoint("b"))

        def scenario():
            yield from a.sendto("b", {"op": "ping"}, 64)
            src, payload, size = yield b.rx.get()
            return src, payload["op"], size

        assert sim.run_process(scenario()) == ("a", "ping", 64)

    def test_large_datagram_fragments(self):
        sim = Simulator()
        net = make_net(sim)
        a = UdpSocket(sim, net.endpoint("a"))
        b = UdpSocket(sim, net.endpoint("b"))

        def scenario():
            yield from a.sendto("b", "big-payload", 100_000)
            src, payload, size = yield b.rx.get()
            return payload, size

        payload, size = sim.run_process(scenario())
        assert payload == "big-payload"
        assert size == 100_000

    def test_larger_messages_take_longer(self):
        def elapsed(size):
            sim = Simulator()
            net = make_net(sim)
            a = UdpSocket(sim, net.endpoint("a"))
            b = UdpSocket(sim, net.endpoint("b"))

            def scenario():
                yield from a.sendto("b", None, size)
                yield b.rx.get()
                return sim.now

            return sim.run_process(scenario())

        assert elapsed(100_000) > elapsed(100)

    def test_datagram_ids_start_at_zero_per_socket(self):
        """Reassembly keys on (source address, datagram id), so ids only
        have to be distinct per sending socket: a fresh socket numbers
        from 0 whatever another simulator in this process has sent."""
        def ids_on_the_wire():
            sim = Simulator()
            net = make_net(sim)
            a = UdpSocket(sim, net.endpoint("a"))
            seen = []
            net.endpoint("b").listen(
                lambda frame: seen.append(frame.payload.datagram_id))

            def send_two():
                yield from a.sendto("b", None, 64)
                yield from a.sendto("b", None, 64)

            sim.run_process(send_two())
            return seen

        assert ids_on_the_wire() == [0, 1]
        assert ids_on_the_wire() == [0, 1]  # after another run's traffic


class TestTcp:
    def test_connect_and_send(self):
        sim = Simulator()
        net = make_net(sim)
        client_stack = TcpStack(sim, net.endpoint("client"))
        server_stack = TcpStack(sim, net.endpoint("server"))
        got = []

        def server():
            connection = yield server_stack.accept()
            payload, size = yield connection.recv()
            got.append((payload, size))

        def client():
            connection = yield from client_stack.connect("server")
            yield from connection.send({"hello": True}, 500)

        sim.process(server())
        sim.process(client())
        sim.run()
        assert got == [({"hello": True}, 500)]

    def test_multi_segment_message(self):
        sim = Simulator()
        net = make_net(sim)
        client_stack = TcpStack(sim, net.endpoint("client"))
        server_stack = TcpStack(sim, net.endpoint("server"))
        got = []

        def server():
            connection = yield server_stack.accept()
            payload, size = yield connection.recv()
            got.append(size)

        def client():
            connection = yield from client_stack.connect("server")
            yield from connection.send("bulk", 50_000)

        sim.process(server())
        sim.process(client())
        sim.run()
        assert got == [50_000]

    def test_handshake_makes_first_message_slower_than_udp(self):
        # TCP pays connect + per-segment ACKs; UDP just fires.
        sim = Simulator()
        net = make_net(sim)
        client_stack = TcpStack(sim, net.endpoint("client"))
        server_stack = TcpStack(sim, net.endpoint("server"))
        tcp_done = []

        def server():
            connection = yield server_stack.accept()
            yield connection.recv()
            tcp_done.append(sim.now)

        def client():
            connection = yield from client_stack.connect("server")
            yield from connection.send(None, 64)

        sim.process(server())
        sim.process(client())
        sim.run()

        sim2 = Simulator()
        net2 = make_net(sim2)
        a = UdpSocket(sim2, net2.endpoint("a"))
        b = UdpSocket(sim2, net2.endpoint("b"))

        def scenario():
            yield from a.sendto("b", None, 64)
            yield b.rx.get()
            return sim2.now

        udp_time = sim2.run_process(scenario())
        assert tcp_done[0] > 2 * udp_time


class TestTcpRto:
    """The retransmission timeout is sized for intra-rack RTTs."""

    def test_default_rto_unchanged(self):
        assert RTO == 200e-6

    def test_default_rto_gives_up_on_millisecond_rtt(self):
        """Regression for the hardwired 200 us RTO: on a ~4 ms-RTT path
        the SYN timer expires 16 times before the SYN-ACK can possibly
        arrive, so connect() must fail rather than hang."""
        sim = Simulator()
        net = Network(sim, propagation=1e-3)  # two 1 ms hops each way
        client_stack = TcpStack(sim, net.endpoint("client"))
        TcpStack(sim, net.endpoint("server"))
        outcome = []

        def client():
            try:
                yield from client_stack.connect("server")
            except ProtocolError:
                outcome.append(sim.now)

        sim.process(client())
        sim.run()
        # Gave up (16 SYNs x 200 us ~ 3.4 ms), did not hang.
        assert len(outcome) == 1
        assert outcome[0] < 5e-3


class TestRdma:
    def test_one_sided_read(self):
        sim = Simulator()
        net = make_net(sim)
        client = RdmaNic(sim, net.endpoint("client"))
        server = RdmaNic(sim, net.endpoint("server"))
        region = server.register_region(bytearray(b"remote memory contents"))

        def scenario():
            data = yield from client.read("server", region.rkey, 7, 6)
            return data

        assert sim.run_process(scenario()) == b"memory"

    def test_one_sided_write(self):
        sim = Simulator()
        net = make_net(sim)
        client = RdmaNic(sim, net.endpoint("client"))
        server = RdmaNic(sim, net.endpoint("server"))
        region = server.register_region(bytearray(16))

        def scenario():
            yield from client.write("server", region.rkey, 4, b"DATA")

        sim.run_process(scenario())
        assert bytes(region.buffer[4:8]) == b"DATA"

    def test_bad_rkey_fails(self):
        sim = Simulator()
        net = make_net(sim)
        client = RdmaNic(sim, net.endpoint("client"))
        RdmaNic(sim, net.endpoint("server"))

        def scenario():
            yield from client.read("server", 999, 0, 4)

        with pytest.raises(Exception):
            sim.run_process(scenario())

    def test_out_of_bounds_read_fails(self):
        sim = Simulator()
        net = make_net(sim)
        client = RdmaNic(sim, net.endpoint("client"))
        server = RdmaNic(sim, net.endpoint("server"))
        region = server.register_region(bytearray(8))

        def scenario():
            yield from client.read("server", region.rkey, 4, 100)

        with pytest.raises(Exception):
            sim.run_process(scenario())


class TestHoma:
    def test_short_message_single_flight(self):
        sim = Simulator()
        net = make_net(sim)
        a = HomaSocket(sim, net.endpoint("a"))
        b = HomaSocket(sim, net.endpoint("b"))

        def send():
            yield from a.send("b", "short", 200)

        def recv():
            src, payload, size = yield b.recv()
            return src, payload, size

        sim.process(send())
        proc = sim.process(recv())
        sim.run()
        assert proc.value == ("a", "short", 200)
        assert a.unscheduled_only == 1

    def test_long_message_needs_grant(self):
        sim = Simulator()
        net = make_net(sim)
        a = HomaSocket(sim, net.endpoint("a"))
        b = HomaSocket(sim, net.endpoint("b"))

        def send():
            yield from a.send("b", "long", 100_000)

        def recv():
            __, payload, size = yield b.recv()
            return payload, size

        sim.process(send())
        proc = sim.process(recv())
        sim.run()
        assert proc.value == ("long", 100_000)
        assert a.unscheduled_only == 0

    def test_short_beats_long_latency_disproportionately(self):
        def homa_latency(size):
            sim = Simulator()
            net = make_net(sim)
            a = HomaSocket(sim, net.endpoint("a"))
            b = HomaSocket(sim, net.endpoint("b"))

            def scenario():
                sim.process(a.send("b", None, size))
                yield b.recv()
                return sim.now

            return sim.run_process(scenario())

        # The grant round-trip penalizes messages beyond RTT_BYTES.
        assert homa_latency(50_000) > 3 * homa_latency(5_000)


class TestRpc:
    def make_pair(self, sim):
        net = make_net(sim)
        server_sock = UdpSocket(sim, net.endpoint("server"))
        client_sock = UdpSocket(sim, net.endpoint("client"))
        return RpcServer(sim, server_sock), RpcClient(sim, client_sock)

    def test_plain_handler(self):
        sim = Simulator()
        server, client = self.make_pair(sim)
        server.register("add", lambda a, b: a + b)

        def scenario():
            result = yield from client.call("server", "add", 2, 3)
            return result

        assert sim.run_process(scenario()) == 5

    def test_generator_handler_runs_in_sim_time(self):
        sim = Simulator()
        server, client = self.make_pair(sim)

        def slow_handler(x):
            yield sim.timeout(1e-3)
            return x * 10

        server.register("slow", slow_handler)

        def scenario():
            result = yield from client.call("server", "slow", 7)
            return result, sim.now

        result, elapsed = sim.run_process(scenario())
        assert result == 70
        assert elapsed > 1e-3

    def test_unknown_method(self):
        sim = Simulator()
        server, client = self.make_pair(sim)

        def scenario():
            yield from client.call("server", "nope")

        with pytest.raises(RpcError, match="no method"):
            sim.run_process(scenario())

    def test_handler_exception_marshalled(self):
        sim = Simulator()
        server, client = self.make_pair(sim)

        def bad():
            raise ValueError("handler blew up")

        server.register("bad", bad)

        def scenario():
            yield from client.call("server", "bad")

        with pytest.raises(RpcError, match="handler blew up"):
            sim.run_process(scenario())

    def test_concurrent_calls_matched_by_id(self):
        sim = Simulator()
        server, client = self.make_pair(sim)

        def delay_echo(x, delay):
            yield sim.timeout(delay)
            return x

        server.register("echo", delay_echo)
        results = []

        def one(x, delay):
            result = yield from client.call("server", "echo", x, delay)
            results.append(result)

        sim.process(one("slow", 5e-3))
        sim.process(one("fast", 1e-3))
        sim.run()
        assert results == ["fast", "slow"]

    def test_rpc_over_homa(self):
        sim = Simulator()
        net = make_net(sim)
        server = RpcServer(sim, HomaSocket(sim, net.endpoint("server")))
        client = RpcClient(sim, HomaSocket(sim, net.endpoint("client")))
        server.register("ping", lambda: "pong")

        def scenario():
            result = yield from client.call("server", "ping")
            return result

        assert sim.run_process(scenario()) == "pong"
