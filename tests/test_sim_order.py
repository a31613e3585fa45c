"""Property test of the engine's order contract on generated schedules.

Every engine entry runs exactly once, at the instant it was scheduled
for, and entries run in strictly increasing ``(when, eid)`` order: at one
instant, earlier-scheduled entries run first. The hand-picked ordering
tests in ``test_sim_engine.py`` pin a few shapes of this; here Hypothesis
builds trees of schedules that mix every way of making an entry, with
children scheduled from inside a running entry (at the current instant
too), and drains them with ``run()``, ``run(until)`` and ``step()``.
"""

from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator

KINDS = ("call_later", "timeout", "timeout_at", "succeed", "wake",
         "process", "spawn")
#: Few distinct delays, zero among them, so that instants tie often.
DELAYS = (0.0, 0.0, 0.25, 0.5, 1.0)

#: A node is ``(kind, delay, children)``: one entry that, when it runs,
#: schedules its children.
nodes = st.recursive(
    st.tuples(st.sampled_from(KINDS), st.sampled_from(DELAYS), st.just(())),
    lambda children: st.tuples(
        st.sampled_from(KINDS), st.sampled_from(DELAYS),
        st.lists(children, max_size=3).map(tuple)),
    max_leaves=40,
)


class Schedule:
    """Schedules a node tree on *sim* and logs every entry it runs."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        #: eid -> the instant the entry was scheduled for.
        self.expected = {}
        #: (now, eid) of every entry, in the order they ran.
        self.ran = []

    def _run(self, eid, children):
        self.ran.append((self.sim.now, eid))
        for child in children:
            self.schedule(*child)

    def _on_event(self, eid, children, event):
        self._run(eid, children)

    def _body(self, eid, children, handle):
        self._run(eid, children)
        if handle:
            # The completion is the next entry scheduled after this line.
            completion = self._expect(self.sim.now)
            handle[0].callbacks.append(
                partial(self._on_event, completion, ()))
        return
        yield  # a generator that never waits

    def _expect(self, when):
        eid = self.sim._eid + 1
        self.expected[eid] = when
        return eid

    def schedule(self, kind, delay, children):
        sim = self.sim
        now = sim.now
        at_once = kind in ("succeed", "process", "spawn")
        eid = self._expect(now if at_once else now + delay)
        on_event = partial(self._on_event, eid, children)
        if kind == "call_later":
            sim.call_later(delay, partial(self._run, eid, children))
        elif kind == "timeout":
            sim.timeout(delay).callbacks.append(on_event)
        elif kind == "timeout_at":
            sim.timeout_at(now + delay).callbacks.append(on_event)
        elif kind == "succeed":
            event = sim.event()
            event.callbacks.append(on_event)
            event.succeed()
        elif kind == "wake":
            # A scheduled callback whose waiter runs inline, in the same
            # entry and without an eid of its own.
            gate = sim.event()
            gate.callbacks.append(on_event)

            def open_gate():
                before = sim._eid
                gate.wake()
                # Each child takes one eid; the wake itself none.
                assert sim._eid - before == len(children)

            sim.call_later(delay, open_gate)
        elif kind == "process":
            handle = []  # filled once sim.process returns, read when it runs
            handle.append(sim.process(self._body(eid, children, handle)))
        else:
            sim.spawn(self._body(eid, children, None))
        assert sim._eid == eid  # one eid per entry, taken at once


def check(schedule: Schedule) -> None:
    ran = schedule.ran
    assert sorted(eid for __, eid in ran) == sorted(schedule.expected)
    for now, eid in ran:
        assert now == schedule.expected[eid]
    assert all(a < b for a, b in zip(ran, ran[1:])), ran


def entries(node) -> int:
    """Entries a node tree makes: one each, and a process's completion."""
    kind, __, children = node
    return 1 + (kind == "process") + sum(entries(child) for child in children)


def drain(sim: Simulator, how: str, stops, total: int) -> None:
    if how == "step":
        for __ in range(total):
            sim.step()
    elif how == "until":
        for stop in sorted(stops):
            sim.run(until=max(stop, sim.now))
    sim.run()


@settings(max_examples=300, deadline=None)
@given(roots=st.lists(nodes, min_size=1, max_size=6),
       how=st.sampled_from(("run", "until", "step")),
       stops=st.lists(st.sampled_from((0.0, 0.25, 0.6, 1.0, 2.0)),
                      max_size=3))
def test_every_entry_runs_once_at_its_instant_in_when_eid_order(
        roots, how, stops):
    sim = Simulator()
    schedule = Schedule(sim)
    for root in roots:
        schedule.schedule(*root)
    drain(sim, how, stops, sum(entries(root) for root in roots))
    check(schedule)


def test_entries_scheduled_at_the_running_instant_queue_behind_it():
    """One generated shape written out: children scheduled at the
    current instant from inside an entry run after every entry already
    queued for that instant, in the order they were scheduled."""
    sim = Simulator()
    schedule = Schedule(sim)
    schedule.schedule("timeout", 1.0, (("call_later", 0.0, ()),
                                       ("succeed", 0.0, ())))
    schedule.schedule("timeout_at", 1.0, ())
    sim.run()
    check(schedule)
    assert [eid for __, eid in schedule.ran] == [1, 2, 3, 4]
