"""Tests for the Ethernet substrate."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.common.units import gbps
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.hw.net import ETHERNET_HEADER, Frame, Link, Network, NetworkPort
from repro.sim import Simulator

from tests.capture import arrivals, sending


def send(link, frame):
    """Process: hand *frame* to *link*; returns once it is serialized."""
    yield link.enqueue(frame)


def stat(component, name):
    """The counter *name* in *component*'s telemetry scope."""
    metrics = component._metrics
    return metrics.registry.get(f"{metrics.prefix}.{name}").value


def one_way_delay(net, payload_size):
    """The analytic minimum latency of one frame endpoint to endpoint:
    two serializations, two propagations and the switch lookup."""
    wire = payload_size + ETHERNET_HEADER
    serialization = 2 * (wire / net.bandwidth)
    return serialization + 2 * net.propagation + net.switch.forward_latency


def min_rtt(net, request_size, response_size):
    """The analytic request/response round trip: two one-way delays."""
    return one_way_delay(net, request_size) + one_way_delay(net, response_size)


def delivered(link):
    """Frames *link* sent minus every loss cause."""
    return (stat(link, "frames_sent") - stat(link, "frames_dropped")
            - stat(link, "frames_corrupted"))


class TestFrame:
    def test_wire_size_includes_overhead(self):
        frame = Frame("a", "b", payload=None, payload_size=1500)
        assert frame.wire_size == 1538

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            Frame("a", "b", None, payload_size=-1)


class TestLink:
    def test_serialization_delay_100g(self):
        sim = Simulator()
        link = Link(sim, bandwidth=gbps(100), propagation=0)
        link.sink = lambda frame: None
        sim.run_process(send(link, Frame("a", "b", None, payload_size=1500 - 38)))
        assert sim.now == pytest.approx(1500 / gbps(100))

    def test_transmit_delivers(self):
        sim = Simulator()
        link = Link(sim, bandwidth=gbps(100), propagation=1e-6)
        seen = arrivals(sim, link)
        sim.run_process(send(link, Frame("a", "b", "hello", 100)))
        [(now, payload)] = seen
        assert payload == "hello"
        assert now == pytest.approx(138 / gbps(100) + 1e-6)

    def test_back_to_back_serializes(self):
        sim = Simulator()
        link = Link(sim, bandwidth=gbps(100), propagation=0)
        seen = arrivals(sim, link)
        for i in range(3):
            sim.process(send(link, Frame("a", "b", i, 1462)))
        sim.run()
        times = [now for now, __ in seen]
        gap = 1500 / gbps(100)
        assert times[1] - times[0] == pytest.approx(gap)
        assert times[2] - times[1] == pytest.approx(gap)

    def test_loss_function_drops(self):
        sim = Simulator()
        plan = FaultPlan()
        plan.once("drop", "link", FaultKind.FRAME_DROP, at=0.0)
        link = Link(sim).attach_faults(FaultInjector(sim, plan), "link")
        seen = arrivals(sim, link)

        def scenario():
            yield from send(link, Frame("a", "b", None, 100))

        sim.run_process(scenario())
        assert stat(link, "frames_dropped") == 1
        assert seen == []

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Link(Simulator(), bandwidth=0)
        with pytest.raises(ValueError):
            Link(Simulator(), propagation=-1)

    def test_stats_expose_drops(self):
        sim = Simulator()
        plan = FaultPlan()
        plan.once("drop", "link", FaultKind.FRAME_DROP, at=0.0)
        link = Link(sim).attach_faults(FaultInjector(sim, plan), "link")
        arrivals(sim, link)

        def scenario():
            yield from send(link, Frame("a", "b", None, 100))
            yield from send(link, Frame("a", "b", None, 100))

        sim.run_process(scenario())
        assert stat(link, "frames_sent") == 2
        assert stat(link, "frames_dropped") == 1
        assert stat(link, "frames_corrupted") == 0
        assert delivered(link) == 1
        assert stat(link, "bytes_sent") == 2 * 138


class TestNetwork:
    def test_two_endpoints_roundtrip(self):
        sim = Simulator()
        net = Network(sim)
        client = net.endpoint("client")
        server = net.endpoint("server")
        server.listen(lambda request: sim.spawn(sending(
            server.send,
            Frame("server", request.src, f"re:{request.payload}", 64),
        )))
        replies = arrivals(sim, client)
        sim.process(sending(client.send, Frame("client", "server", "ping", 64)))
        sim.run()
        [(rtt, payload)] = replies
        assert payload == "re:ping"
        assert rtt == pytest.approx(min_rtt(net, 64, 64), rel=0.01)

    def test_unknown_destination_dropped_by_switch(self):
        sim = Simulator()
        net = Network(sim)
        a = net.endpoint("a")

        def scenario():
            yield a.send(Frame("a", "nowhere", None, 64))

        sim.run_process(scenario())
        assert stat(net.switch, "frames_forwarded") == 0

    def test_a_frame_nobody_listens_for_fails_the_run(self):
        """No queue holds an unheard frame: its arrival raises, naming
        the destination and the link it arrived on."""
        sim = Simulator()
        net = Network(sim)
        a = net.endpoint("a")
        net.endpoint("b")  # wired to the switch; nothing listens
        sim.process(sending(a.send, Frame("a", "b", "unheard", 64)))
        with pytest.raises(
            ConfigurationError,
            match=r"frame for b arrived on net\.link\.b\.down, where nothing",
        ):
            sim.run()

    def test_port_without_route(self):
        sim = Simulator()
        port = NetworkPort(sim, "lonely")
        with pytest.raises(ConfigurationError):
            sim.run_process(sending(port.send, Frame("lonely", "x", None, 10)))

    def test_min_rtt_scales_with_propagation(self):
        sim = Simulator()
        near = Network(sim, propagation=1e-6)
        far = Network(sim, propagation=100e-6)
        assert min_rtt(far, 64, 64) > min_rtt(near, 64, 64)

    def test_port_stats_aggregate_tx_and_rx(self):
        sim = Simulator()
        net = Network(sim)
        a = net.endpoint("a")
        b = net.endpoint("b")
        seen = arrivals(sim, b)

        def sender():
            yield a.send(Frame("a", "b", "one", 64))
            yield a.send(Frame("a", "b", "two", 64))

        sim.process(sender())
        sim.run()
        assert [payload for __, payload in seen] == ["one", "two"]
        assert stat(a.route(), "frames_sent") == 2
        assert stat(a.route(), "frames_dropped") == 0
        assert delivered(b.rx_link) == 2
        assert sim.telemetry.counter("net.port.a.tx_frames").value == 2


class TestCallbackDatapath:
    """Frames ride scheduled callbacks; every modelled delay stays put.

    Timing assertions here are ``==`` on purpose: the uncontended path
    adds the same floats in the same order as the analytic helpers, so
    a refactor that moves a timestamp by one ulp fails.
    """

    @pytest.mark.parametrize("size", [0, 64, 1000, 1462])
    def test_one_frame_arrives_at_exactly_one_way_delay(self, size):
        sim = Simulator()
        net = Network(sim)
        a, b = net.endpoint("a"), net.endpoint("b")
        seen = arrivals(sim, b)
        sim.process(sending(a.send, Frame("a", "b", "x", size)))
        sim.run()
        assert seen == [(one_way_delay(net, size), "x")]

    def test_one_way_delay_counts_the_ethernet_header(self):
        net = Network(Simulator(), propagation=0.0)
        assert one_way_delay(net, 100) == (
            2 * (138 / gbps(100)) + net.switch.forward_latency
        )

    def test_echo_rpc_completes_at_exactly_min_rtt(self):
        from repro.transport import RpcClient, RpcServer, UdpSocket
        from repro.transport.rpc import RPC_HEADER
        from repro.transport.udp import UDP_HEADER

        sim = Simulator()
        net = Network(sim)
        server = RpcServer(sim, UdpSocket(sim, net.endpoint("server")))
        server.register("echo", lambda value: value)
        client = RpcClient(sim, UdpSocket(sim, net.endpoint("client")))

        def call():
            value = yield from client.call("server", "echo", "hi")
            return value, sim.now

        value, done = sim.run_process(call())
        size = RPC_HEADER + 64 + UDP_HEADER
        assert value == "hi"
        assert done == min_rtt(net, size, size) == 5.046719999999999e-06

    def test_back_to_back_frames_leave_at_line_rate_in_fifo_order(self):
        sim = Simulator()
        link = Link(sim, bandwidth=gbps(100), propagation=1e-6)
        seen = []
        link.sink = lambda frame: seen.append((sim.now, frame.payload))
        sender_done = []

        def sender(i):
            yield from send(link, Frame("a", "b", i, 1462))
            sender_done.append((sim.now, i))

        for i in range(4):
            sim.process(sender(i))
        sim.run()
        ser = 1500 / gbps(100)
        # Each frame starts when the previous one has left the
        # transmitter: t_done(i) = t_done(i-1) + ser, accumulated.
        done = [ser]
        for __ in range(3):
            done.append(done[-1] + ser)
        assert sender_done == [(done[i], i) for i in range(4)]
        assert seen == [(done[i] + 1e-6, i) for i in range(4)]
        assert stat(link, "frames_sent") == 4 and stat(link, "bytes_sent") == 4 * 1500

    def test_enqueue_without_a_process(self):
        """A callback can send: ``enqueue`` needs no generator around it."""
        sim = Simulator()
        link = Link(sim, propagation=0)
        seen = arrivals(sim, link)
        events = [link.enqueue(Frame("a", "b", i, 100)) for i in range(2)]
        sim.run()
        assert all(event.callbacks is None for event in events)
        assert [payload for __, payload in seen] == [0, 1]

    def test_one_ingress_forwards_one_frame_at_a_time(self):
        """Two frames reaching one ingress within ``forward_latency`` are
        forwarded ``forward_latency`` apart."""
        sim = Simulator()
        net = Network(sim, propagation=1e-6)
        fwd = net.switch.forward_latency
        a, b = net.endpoint("a"), net.endpoint("b")
        seen = arrivals(sim, b)

        def burst():
            yield a.send(Frame("a", "b", "first", 0))
            yield a.send(Frame("a", "b", "second", 0))

        sim.process(burst())
        sim.run()
        ser = 38 / gbps(100)
        assert ser < fwd  # the second frame arrives mid-lookup
        first_fwd = ser + 1e-6 + fwd
        second_fwd = first_fwd + fwd  # max(arrival, busy_until) + fwd
        assert seen == [
            (first_fwd + ser + 1e-6, "first"),
            (second_fwd + ser + 1e-6, "second"),
        ]

    def test_two_ingresses_forward_concurrently(self):
        sim = Simulator()
        net = Network(sim)
        a, b, c = (net.endpoint(name) for name in "abc")
        seen = arrivals(sim, c)
        sim.process(sending(a.send, Frame("a", "c", "from-a", 0)))
        sim.process(sending(b.send, Frame("b", "c", "from-b", 0)))
        sim.run()
        ser = 38 / net.bandwidth
        forwarded = ser + net.propagation + net.switch.forward_latency
        # Both lookups finish at the same instant; only c's downlink
        # transmitter serializes them, one frame time apart.
        assert seen == [
            (forwarded + ser + net.propagation, "from-a"),
            (forwarded + ser + ser + net.propagation, "from-b"),
        ]
        assert stat(net.switch, "frames_forwarded") == 2

    def test_blackhole_installed_mid_lookup_still_drops(self):
        sim = Simulator()
        net = Network(sim)
        a, b = net.endpoint("a"), net.endpoint("b")
        seen = arrivals(sim, b)
        sim.process(sending(a.send, Frame("a", "b", "doomed", 64)))
        arrival = (64 + 38) / net.bandwidth + net.propagation
        # After the frame reached the switch, before its lookup is done.
        sim.call_later(arrival + net.switch.forward_latency / 2,
                       lambda: net.switch.blackhole("b"))
        sim.run()
        assert seen == []
        assert stat(net.switch, "frames_blackholed") == 1
        assert stat(net.switch, "frames_forwarded") == 0

    def test_no_process_per_frame(self):
        """One frame end to end is three engine entries — the uplink
        serialization its sender waits on, the switch lookup (scheduled
        when the frame leaves the uplink, for the instant it will have
        arrived and been looked up), the arrival at the endpoint
        (scheduled by the lookup: the downlink's serialization is
        busy-until arithmetic) — plus the sender process's own bootstrap
        and completion. (4 + 2 while the downlink serialization was an
        entry.)"""
        sim = Simulator()
        net = Network(sim)
        a, b = net.endpoint("a"), net.endpoint("b")
        arrivals(sim, b)
        spawned = []
        spawn = sim.process
        sim.process = lambda generator: spawned.append(1) or spawn(generator)
        before = sim._eid
        sim.process(sending(a.send, Frame("a", "b", None, 64)))
        sim.run()
        assert sim._eid - before == 3 + 2
        assert len(spawned) == 1  # the sender; nothing inside hw.net

    def test_listen_needs_an_rx_link(self):
        port = NetworkPort(Simulator(), "tx-only")
        with pytest.raises(ConfigurationError, match="tx-only"):
            port.listen(lambda frame: None)


class TestLinkLossAccounting:
    """Every loss cause is counted once and never delivered."""

    def _sent(self, sim, link, count=1):
        seen = []
        link.sink = lambda frame: seen.append(frame.payload)
        for i in range(count):
            sim.process(send(link, Frame("a", "b", i, 100)))
        sim.run()
        return seen

    @pytest.mark.parametrize("kind, dropped, corrupted", [
        ("FRAME_DROP", 1, 0), ("FRAME_CORRUPT", 0, 1),
    ])
    def test_injected_point_faults(self, kind, dropped, corrupted):
        sim = Simulator()
        plan = FaultPlan()
        plan.probabilistic("f", "uplink", FaultKind[kind], 1.0, max_fires=1)
        injector = FaultInjector(sim, plan)
        link = Link(sim).attach_faults(injector, "uplink")
        assert self._sent(sim, link, 2) == [1]
        assert (stat(link, "frames_sent"), stat(link, "frames_dropped"),
                stat(link, "frames_corrupted")) == (2, dropped, corrupted)
        assert len(injector.log) == 1

    def test_link_down_window(self):
        sim = Simulator()
        plan = FaultPlan()
        plan.windowed("flap", "uplink", FaultKind.LINK_DOWN, 0.0, 1e-3)
        link = Link(sim).attach_faults(FaultInjector(sim, plan), "uplink")
        assert self._sent(sim, link, 2) == []
        sim.timeout_at(2e-3).callbacks.append(
            lambda event: link.enqueue(Frame("a", "b", "up", 100)))
        assert self._sent(sim, link, 0) == ["up"]
        assert (stat(link, "frames_sent"), stat(link, "frames_dropped")) == (3, 2)

    def test_injector_draws_in_serialization_completion_order(self):
        """Two links share one injector spec; the frames' draws happen in
        the order their serializations complete, not the order they
        were offered — and a queued frame draws after the one ahead."""
        sim = Simulator()
        order = []

        class Recording(FaultInjector):
            def fires(self, component, kind):
                if kind is FaultKind.FRAME_DROP:
                    order.append((self.clock.now, component))
                return super().fires(component, kind)

        injector = Recording(sim, FaultPlan())
        slow = Link(sim, bandwidth=1e9).attach_faults(injector, "slow")
        fast = Link(sim, bandwidth=10e9).attach_faults(injector, "fast")
        for link in (slow, fast):
            arrivals(sim, link)
        slow.enqueue(Frame("a", "b", "s0", 962))   # offered first: 1 us
        fast.enqueue(Frame("a", "b", "f0", 962))   # 0.1 us
        fast.enqueue(Frame("a", "b", "f1", 962))   # queued: 0.2 us
        sim.run()
        fast_ser, slow_ser = 1000 / 10e9, 1000 / 1e9
        assert order == [
            (fast_ser, "fast"), (fast_ser + fast_ser, "fast"),
            (slow_ser, "slow"),
        ]


def serialized_one_by_one(link):
    """The downlink as it was: every frame one serialization entry."""
    link.forward = link.enqueue


def summed_first(link):
    """The mutant: a frame queued behind another leaves at the burst's
    start plus the *summed* serializations, ``start + (s1 + s2)``, where
    the chain reaches ``(start + s1) + s2``."""
    burst = [0.0, 0.0]  # start, serialization so far

    def forward(frame):
        now = link.sim.now
        delay = frame.wire_size / link.bandwidth
        if link._busy_until > now:
            burst[1] += delay
        else:
            burst[:] = [now, delay]
        link._busy_until = done = burst[0] + burst[1]
        link.sim.timeout_at(done + link.propagation).callbacks.append(
            lambda event: link.sink(frame))

    link.forward = forward


def two_frames_onto_one_downlink(size, propagation, egress=None):
    """``a`` and ``b`` each send one *size*-byte frame to ``c`` at once:
    both lookups finish at one instant and forward onto c's downlink
    together. Returns ``(time, payload)`` of every arrival at ``c``."""
    sim = Simulator()
    net = Network(sim, propagation=propagation)
    a, b, c = (net.endpoint(name) for name in "abc")
    seen = arrivals(sim, c)
    if egress is not None:
        egress(c.rx_link)
    sim.process(sending(a.send, Frame("a", "c", "from-a", size)))
    sim.process(sending(b.send, Frame("b", "c", "from-b", size)))
    sim.run()
    return seen


class TestForwardedEgress:
    """A switch egress is busy-until arithmetic: the frame's arrival is
    scheduled when it is forwarded, at the float the serialization
    entries would have reached."""

    @given(size=st.integers(min_value=0, max_value=1500),
           propagation=st.floats(min_value=0.0, max_value=1e-3))
    def test_same_instant_frames_arrive_where_the_chain_does(
            self, size, propagation):
        forwarded = two_frames_onto_one_downlink(size, propagation)
        chain = two_frames_onto_one_downlink(
            size, propagation, serialized_one_by_one)
        assert forwarded == chain
        assert [payload for __, payload in forwarded] == ["from-a", "from-b"]

    def test_summing_the_serializations_first_is_caught(self):
        """The mutant check: the comparison above must tell ``start + (s1
        + s2)`` from ``(start + s1) + s2`` (here on default links, with
        a payload whose two sums differ in the last bit)."""
        args = (14, 1e-6)
        chain = two_frames_onto_one_downlink(*args, serialized_one_by_one)
        assert two_frames_onto_one_downlink(*args, summed_first) != chain
        assert two_frames_onto_one_downlink(*args) == chain

    def test_a_faulty_downlink_draws_at_serialization_completion(self):
        """An injector on the egress keeps its serialization entry: the
        fault is drawn, and logged, when the frame has left."""
        sim = Simulator()
        net = Network(sim)
        a, b = net.endpoint("a"), net.endpoint("b")
        plan = FaultPlan()
        plan.probabilistic("drop", "b.down", FaultKind.FRAME_DROP, 1.0,
                           max_fires=1)
        injector = FaultInjector(sim, plan)
        downlink = b.rx_link.attach_faults(injector, "b.down")
        seen = arrivals(sim, b)
        sim.process(sending(a.send, Frame("a", "b", "lost", 64)))
        sim.run()
        ser = (64 + 38) / net.bandwidth
        looked_up = ser + net.propagation + net.switch.forward_latency
        assert [record.time for record in injector.log] == [looked_up + ser]
        assert seen == [] and stat(downlink, "frames_dropped") == 1

    def test_an_enqueued_frame_waits_for_a_forwarded_one(self):
        """Both paths share one transmitter: a frame offered through
        ``enqueue`` behind a forwarded frame starts when that one has
        left, and its sender resumes then."""
        sim = Simulator()
        link = Link(sim, bandwidth=gbps(100), propagation=1e-6)
        seen = []
        link.sink = lambda frame: seen.append((sim.now, frame.payload))
        link.forward(Frame("a", "b", "forwarded", 1462))
        sent = link.enqueue(Frame("a", "b", "enqueued", 1462))
        sim.run()
        ser = 1500 / gbps(100)
        assert sent.callbacks is None  # processed
        assert seen == [(ser + 1e-6, "forwarded"), (ser + ser + 1e-6, "enqueued")]
        assert stat(link, "frames_sent") == 2
