"""Failure injection: transports over lossy links.

TCP must retransmit and still deliver; UDP loses datagrams silently —
the reliability split the RPC layer's users choose between.
"""

import random
from functools import partial

import pytest

from repro.common.errors import ProtocolError
from repro.hw.net.link import Link
from repro.hw.net.port import NetworkPort
from repro.sim import Simulator
from repro.transport.tcp import TcpStack
from repro.transport.udp import UdpSocket

from tests.capture import arrivals, sending


def lose(link, loss_fn):
    """*link* loses the frames *loss_fn* picks: its sink never sees them."""
    deliver = link.sink
    link.sink = lambda frame: None if loss_fn(frame) else deliver(frame)


def lossy_pair(sim, loss_fn, endpoint):
    """``endpoint(sim, port)`` on two ports wired directly, with a lossy
    A->B link (unless *loss_fn* is None) and a clean B->A."""
    a = NetworkPort(sim, "a")
    b = NetworkPort(sim, "b")
    a_to_b = Link(sim)
    b_to_a = Link(sim)
    a.attach_tx(a_to_b)
    b.attach_rx(a_to_b)
    b.attach_tx(b_to_a)
    a.attach_rx(b_to_a)
    ends = endpoint(sim, a), endpoint(sim, b)
    if loss_fn is not None:
        lose(a_to_b, loss_fn)  # after B's endpoint installed its listener
    return ends


class TestTcpUnderLoss:
    def test_retransmission_delivers(self):
        sim = Simulator()
        rng = random.Random(4)
        # Drop 30% of frames a->b (data direction).
        client, server = lossy_pair(
            sim, lambda f: rng.random() < 0.3, TcpStack)
        got = []

        def server_side():
            connection = yield server.accept()
            for _ in range(5):
                payload, size = yield connection.recv()
                got.append(payload)

        def client_side():
            connection = yield from client.connect("b")
            for i in range(5):
                yield from connection.send(f"msg-{i}", 20_000)
            return connection

        sim.process(server_side())
        proc = sim.process(client_side())
        sim.run(until=5.0)
        assert got == [f"msg-{i}" for i in range(5)]
        assert proc.value.retransmissions > 0

    def test_loss_costs_time(self):
        def run(loss):
            sim = Simulator()
            rng = random.Random(11)
            client, server = lossy_pair(
                sim, (lambda f: rng.random() < loss) if loss else None,
                TcpStack,
            )
            done = []

            def server_side():
                connection = yield server.accept()
                yield connection.recv()
                done.append(sim.now)

            def client_side():
                connection = yield from client.connect("b")
                yield from connection.send("bulk", 50_000)

            sim.process(server_side())
            sim.process(client_side())
            sim.run(until=5.0)
            return done[0]

        assert run(0.3) > run(0.0)

    def test_a_syn_ack_after_connect_gave_up_is_ignored(self):
        sim = Simulator()
        client, server = lossy_pair(sim, None, TcpStack)
        # Every B->A frame arrives a second late: connect gives up after
        # its 17th SYN, long before the first SYN-ACK lands.
        late = client.port.rx_link
        deliver = late.sink
        late.sink = lambda frame: sim.call_later(1.0, partial(deliver, frame))
        proc = sim.process(client.connect("b"))
        sim.run()
        with pytest.raises(ProtocolError, match="16 SYNs"):
            proc.result()
        assert sim.now > 1.0 and not client.connections


class TestUdpUnderLoss:
    def test_datagrams_silently_lost(self):
        sim = Simulator()
        counter = [0]

        def drop_every_other(frame):
            counter[0] += 1
            return counter[0] % 2 == 0

        a, b = lossy_pair(sim, drop_every_other, UdpSocket)
        seen = arrivals(sim, b)

        def sender():
            for i in range(10):
                yield a.sendto("b", i, 100)

        sim.process(sender())
        sim.run()
        assert a.datagrams_sent == 10
        assert b.datagrams_received == 5
        assert [datagram[1] for __, datagram in seen] == [0, 2, 4, 6, 8]

    def test_fragmented_datagram_dies_on_one_lost_fragment(self):
        sim = Simulator()
        counter = [0]

        def drop_third_frame(frame):
            counter[0] += 1
            return counter[0] == 3

        a, b = lossy_pair(sim, drop_third_frame, UdpSocket)

        def sender():
            yield a.sendto("b", "big", 50_000)  # many fragments

        sim.process(sender())
        sim.run()
        assert b.datagrams_received == 0  # the whole datagram is gone

    def test_reassembly_state_is_bounded_on_a_lossy_link(self):
        """A datagram that lost a fragment never completes; its partial
        state must not be kept forever. (Before the bound, 500 broken
        datagrams left 500 entries behind.)"""
        from repro.transport.udp import MAX_PARTIAL_DATAGRAMS

        sim = Simulator()
        # Lose the second of every three-fragment datagram's frames;
        # single-fragment datagrams (wire size < 1 KB) get through.
        a, b = lossy_pair(
            sim, lambda f: f.payload.total == 3 and f.payload.index == 1,
            UdpSocket)
        seen = arrivals(sim, b)

        def sender():
            for i in range(500):
                yield a.sendto("b", ("broken", i), 4_000)
            yield a.sendto("b", "small", 100)

        sim.process(sender())
        sim.run()
        assert b.datagrams_received == 1
        assert [datagram[1] for __, datagram in seen] == ["small"]
        assert len(b._partial) == MAX_PARTIAL_DATAGRAMS == 64
        assert b.reassembly_evicted == 500 - 64
        # Oldest out first: what is left are the newest 64.
        ids = sorted(dgram for __, dgram in b._partial)
        assert ids == list(range(ids[0], ids[0] + 64))
        # Plain ints beside datagrams_received: no telemetry path added.
        assert not [path for path in sim.telemetry.paths()
                    if "reassembl" in path or "evict" in path]

    def test_eviction_spares_datagrams_still_completing(self):
        """Interleaved senders below the bound reassemble untouched."""
        sim = Simulator()
        hub = NetworkPort(sim, "hub")
        link = Link(sim)
        hub.attach_rx(link)
        receiver = UdpSocket(sim, hub)
        senders = []
        for i in range(8):
            port = NetworkPort(sim, f"s{i}")
            port.attach_tx(link)
            port.attach_rx(Link(sim))
            senders.append(UdpSocket(sim, port))
        got = []
        receiver.deliver = got.append
        for i, sock in enumerate(senders):
            sim.process(sending(sock.sendto, "hub", i, 10_000))
        sim.run()
        assert sorted(payload for __, payload, __ in got) == list(range(8))
        assert receiver.reassembly_evicted == 0 and not receiver._partial
