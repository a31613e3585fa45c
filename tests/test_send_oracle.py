"""The event-returning send path against the processes it replaced.

``NetworkPort.send`` and the UDP and HOMA ``sendto`` return an event
and chain a message's frames through serialization callbacks; the
generator processes they were are kept in ``tests/send_reference.py``.
Both versions run the same scenario — one- and multi-frame datagrams,
granted HOMA messages, an idle or busy uplink, frame drops or
corruption, traced or not — and must agree exactly: every frame's and
every message's arrival instant, when each sender resumed, the final
``Simulator._eid``, the fault log in order, the telemetry snapshot, and
every ``net.tx`` span.
"""

from collections import namedtuple
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.hw.net import Frame, Network
from repro.sim import Simulator
from repro.transport import HomaSocket, UdpSocket

from tests.capture import sending
from tests.send_reference import ReferenceHomaSocket, ReferenceUdpSocket

SENDER = "s"
RECEIVERS = ("r0", "r1")

#: ``sends``: ``(delay, receiver, size)`` per message, each from its own
#: process; ``noise``: ``(instant, wire payload size)`` frames offered
#: straight to the sender's uplink, to keep it busy; ``fault``: a
#: ``(kind, probability)`` on the sender's uplink and r0's downlink.
Scenario = namedtuple(
    "Scenario", "transport sends noise fault seed traced"
)

SOCKETS = {
    ("udp", False): UdpSocket,
    ("udp", True): ReferenceUdpSocket,
    ("homa", False): HomaSocket,
    ("homa", True): ReferenceHomaSocket,
}


def run(scenario, reference):
    """Everything observable about one run of *scenario*."""
    sim = Simulator()
    tracer = sim.tracer
    if scenario.traced:
        tracer.enable()
    network = Network(sim)
    socket_class = SOCKETS[scenario.transport, reference]
    frames, messages, resumed = [], [], []
    sockets = {}
    for name in (SENDER,) + RECEIVERS:
        sockets[name] = socket = socket_class(sim, network.endpoint(name))
        socket.deliver = (
            lambda message, name=name: messages.append((sim.now, name, message))
        )
        link = network.port(name).rx_link
        link.sink = partial(
            lambda name, inner, frame: (
                frames.append((sim.now, name, frame.wire_size,
                               type(frame.payload).__name__)),
                inner(frame),
            ),
            name, link.sink,
        )
    injector = None
    if scenario.fault is not None:
        kind, probability = scenario.fault
        plan = FaultPlan(seed=scenario.seed)
        plan.probabilistic("up", f"net.link.{SENDER}.up", kind, probability)
        plan.probabilistic("down", "net.link.r0.down", kind, probability)
        injector = FaultInjector(sim, plan)
        network.port(SENDER).route().attach_faults(
            injector, f"net.link.{SENDER}.up")
        network.port("r0").rx_link.attach_faults(injector, "net.link.r0.down")
    uplink = network.port(SENDER).route()
    for when, size in scenario.noise:
        sim.call_later(when, partial(
            uplink.enqueue, Frame(SENDER, "r1", "noise", size)))
    sender = sockets[SENDER]

    def send(index, delay, dst, size):
        yield sim.timeout(delay)
        if reference:
            yield from sender.sendto(dst, ("m", index), size)
        else:
            yield from sending(sender.sendto, dst, ("m", index), size)
        resumed.append((sim.now, index))

    for index, (delay, dst, size) in enumerate(scenario.sends):
        process = send(index, delay, dst, size)
        if scenario.traced and index % 2:
            process = tracer.drive(process, tracer.flow())
        sim.spawn(process)
    sim.run()
    spans = [
        (span.context.trace_id if span.context else None, span.start,
         span.end, span.attrs["component"], span.attrs["bytes"],
         span.parent.name if span.parent else None)
        for root in tracer.roots for span in root.walk()
        if span.name == "net.tx"
    ]
    return {
        "frames": frames,
        "messages": messages,
        "resumed": resumed,
        "eid": sim._eid,
        "faults": [record.line() for record in injector.log] if injector else [],
        "telemetry": sim.telemetry.snapshot_bytes(),
        "spans": spans,
    }


def assert_same(scenario):
    reference = run(scenario, reference=True)
    assert run(scenario, reference=False) == reference
    return reference


UDP_ONE = (0.0, "r0", 64)
UDP_MANY = (0.0, "r0", 9_000)  # seven fragments
HOMA_SHORT = (0.0, "r0", 200)
HOMA_GRANTED = (0.0, "r0", 20_000)  # 7 unscheduled + 7 granted frames
NOISE = ((0.0, 1_462), (2e-7, 1_462), (5e-7, 64))
DROP = (FaultKind.FRAME_DROP, 0.3)
CORRUPT = (FaultKind.FRAME_CORRUPT, 0.3)


@pytest.mark.parametrize("traced", [False, True])
@pytest.mark.parametrize("fault", [None, DROP, CORRUPT])
@pytest.mark.parametrize("noise", [(), NOISE], ids=["idle", "busy"])
@pytest.mark.parametrize("transport,sends", [
    ("udp", (UDP_ONE,)),
    ("udp", (UDP_MANY,)),
    ("udp", (UDP_MANY, (1e-7, "r1", 3_000), (1e-7, "r0", 64))),
    ("homa", (HOMA_SHORT,)),
    ("homa", (HOMA_GRANTED,)),
    ("homa", (HOMA_GRANTED, (0.0, "r1", 12_000), (1e-6, "r0", 200))),
], ids=["udp-one", "udp-many", "udp-mixed", "homa-short", "homa-granted",
        "homa-mixed"])
def test_named_cases(transport, sends, noise, fault, traced):
    observed = assert_same(
        Scenario(transport, sends, noise, fault, seed=1, traced=traced)
    )
    if fault is None:
        # Nothing was lost: every message arrived, every sender resumed.
        assert len(observed["messages"]) == len(sends)
        assert len(observed["resumed"]) == len(sends)
    if traced:
        assert observed["spans"]


@st.composite
def scenarios(draw):
    transport = draw(st.sampled_from(["udp", "homa"]))
    sizes = (
        [0, 64, 1_472, 1_473, 3_000, 9_000] if transport == "udp"
        else [0, 200, 1_460, 9_999, 10_001, 20_000, 31_000]
    )
    sends = draw(st.lists(
        st.tuples(st.sampled_from([0.0, 1e-7, 1e-6, 3e-6]),
                  st.sampled_from(RECEIVERS), st.sampled_from(sizes)),
        min_size=1, max_size=4,
    ))
    noise = draw(st.lists(
        st.tuples(st.sampled_from([0.0, 5e-8, 1e-6, 2e-6]),
                  st.sampled_from([64, 1_462])),
        max_size=3,
    ))
    fault = draw(st.sampled_from([None, DROP, CORRUPT]))
    return Scenario(transport, tuple(sends), tuple(noise), fault,
                    draw(st.integers(0, 3)), draw(st.booleans()))


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_generated_schedules(scenario):
    assert_same(scenario)
