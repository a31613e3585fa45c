"""Tests for UDP, TCP, RDMA, HOMA, and the RPC layer."""

import pytest

from repro.common.errors import ConfigurationError, ProtocolError
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
from repro.transport.rpc import BATCH_METHOD, RPC_HEADER, RpcRequest
from repro.transport.tcp import RTO

from tests.capture import StubSocket, arrivals, sending


def make_net(sim):
    return Network(sim)


class TestUdp:
    def test_small_datagram(self):
        sim = Simulator()
        net = make_net(sim)
        a = UdpSocket(sim, net.endpoint("a"))
        b = UdpSocket(sim, net.endpoint("b"))
        seen = arrivals(sim, b)
        sim.run_process(sending(a.sendto, "b", {"op": "ping"}, 64))
        [(__, (src, payload, size))] = seen
        assert (src, payload["op"], size) == ("a", "ping", 64)

    def test_large_datagram_fragments(self):
        sim = Simulator()
        net = make_net(sim)
        a = UdpSocket(sim, net.endpoint("a"))
        b = UdpSocket(sim, net.endpoint("b"))
        seen = arrivals(sim, b)
        sim.run_process(sending(a.sendto, "b", "big-payload", 100_000))
        [(__, (src, payload, size))] = seen
        assert payload == "big-payload"
        assert size == 100_000

    def test_larger_messages_take_longer(self):
        def elapsed(size):
            sim = Simulator()
            net = make_net(sim)
            a = UdpSocket(sim, net.endpoint("a"))
            b = UdpSocket(sim, net.endpoint("b"))
            seen = arrivals(sim, b)
            sim.run_process(sending(a.sendto, "b", None, size))
            [(arrived, __)] = seen
            return arrived

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
                yield a.sendto("b", None, 64)
                yield a.sendto("b", None, 64)

            sim.run_process(send_two())
            return seen

        assert ids_on_the_wire() == [0, 1]
        assert ids_on_the_wire() == [0, 1]  # after another run's traffic


@pytest.mark.parametrize("socket_type, kind", [
    (UdpSocket, "datagram from a reached UDP socket b"),
    (HomaSocket, "message from a reached HOMA socket b"),
], ids=["udp", "homa"])
def test_a_message_nobody_consumes_fails_the_run(socket_type, kind):
    """No queue holds a message no upper layer took: delivering it
    raises, naming the sender and the socket."""
    sim = Simulator()
    net = make_net(sim)
    a = socket_type(sim, net.endpoint("a"))
    socket_type(sim, net.endpoint("b"))  # takes frames; nothing above it
    sim.process(sending(a.sendto, "b", "unheard", 64))
    with pytest.raises(ConfigurationError, match=kind):
        sim.run()


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
        seen = arrivals(sim2, b)
        sim2.run_process(sending(a.sendto, "b", None, 64))
        [(udp_time, __)] = seen
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
        seen = arrivals(sim, b)
        sim.run_process(sending(a.sendto, "b", "short", 200))
        assert [message for __, message in seen] == [("a", "short", 200)]
        assert a.unscheduled_only == 1

    def test_long_message_needs_grant(self):
        sim = Simulator()
        net = make_net(sim)
        a = HomaSocket(sim, net.endpoint("a"))
        b = HomaSocket(sim, net.endpoint("b"))
        seen = arrivals(sim, b)
        sim.run_process(sending(a.sendto, "b", "long", 100_000))
        [(__, (__, payload, size))] = seen
        assert (payload, size) == ("long", 100_000)
        assert a.unscheduled_only == 0

    def test_short_beats_long_latency_disproportionately(self):
        def homa_latency(size):
            sim = Simulator()
            net = make_net(sim)
            a = HomaSocket(sim, net.endpoint("a"))
            b = HomaSocket(sim, net.endpoint("b"))
            seen = arrivals(sim, b)
            sim.run_process(sending(a.sendto, "b", None, size))
            [(arrived, __)] = seen
            return arrived

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

    def test_batch_handler_keeps_the_single_call_edges(self):
        """``rpc.batch`` is a built-in handler, not a registered one: a
        nested batch answers "no method" in its slot, and an unknown
        single method gets a header-sized error and is not served."""
        sim = Simulator()
        socket = StubSocket(sim, "server")
        server = RpcServer(sim, socket)
        server.register("add", lambda a, b: a + b)
        ops = (("add", (1, 2)), (BATCH_METHOD, (((("add", (3, 4)),),))))
        socket.deliver(("client", RpcRequest(0, BATCH_METHOD, (ops,), 128),
                        RPC_HEADER))
        socket.deliver(("client", RpcRequest(1, "nope", (), 64), RPC_HEADER))
        sim.run()
        sent = {payload.rpc_id: (payload, size)
                for __, __, payload, size in socket.sent}
        batch, size = sent[0]
        assert batch.ok and size == RPC_HEADER + 128
        added, nested = batch.result
        assert added.ok and added.result == 3
        assert not nested.ok and nested.error == f"no method {BATCH_METHOD!r}"
        unknown, size = sent[1]
        assert not unknown.ok and unknown.error == "no method 'nope'"
        assert size == RPC_HEADER
        served = {name: sim.telemetry.get(f"rpc.server.server.{name}").value
                  for name in ("requests_served", "batches_served",
                               "batched_ops")}
        assert served == {"requests_served": 1, "batches_served": 1,
                          "batched_ops": 1}

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

    @staticmethod
    def resumes(sim, call):
        """Run *call*; the instants its caller resumed at after it started."""
        instants = []

        def counted():
            value = None
            while True:
                try:
                    event = call.send(value)
                except StopIteration as stop:
                    return stop.value
                value = yield event
                instants.append(sim.now)

        assert sim.run_process(counted()) == 1
        return instants

    #: The 146-byte request leaves the client's 100 Gb/s uplink at 11.68
    #: ns; the answer lands at 5.04672 us (both as the floats the
    #: engine reaches).
    REQUEST_SERIALIZED = 1.168e-08
    ANSWERED = 5.046719999999999e-06

    def test_a_timer_free_call_resumes_its_caller_once(self):
        """With no timeout, policy or deadline nothing is timed from the
        send, so the caller is not woken as its request leaves the
        uplink: it resumes once, when the answer lands, at the instant
        and the engine entry count it did when it was woken twice."""
        sim = Simulator()
        server, client = self.make_pair(sim)
        server.register("echo", lambda x: x)
        assert self.resumes(sim, client.call("server", "echo", 1)) == [
            self.ANSWERED
        ]
        assert sim._eid == 9

    def test_a_timed_call_waits_for_its_request_to_leave(self):
        """A per-attempt timeout runs from when the request has left the
        uplink, so a timed call still resumes there first."""
        sim = Simulator()
        server, client = self.make_pair(sim)
        server.register("echo", lambda x: x)
        call = client.call("server", "echo", 1, timeout=1e-3)
        assert self.resumes(sim, call) == [
            self.REQUEST_SERIALIZED, self.ANSWERED
        ]

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
