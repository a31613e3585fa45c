"""Tests for the discrete-event simulation kernel."""

import gc
import weakref
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import TIMED_OUT, Simulator, expire
from repro.sim.engine import Process


def timer(sim, delay, value):
    """An event that fires after *delay* with *value* (a timeout fires
    with None)."""
    event = sim.event()
    sim.call_later(delay, lambda: event.succeed(value))
    return event


class TestTimeout:
    def test_time_advances(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(5.0)
            return sim.now

        assert sim.run_process(proc()) == pytest.approx(5.0)

    def test_zero_delay(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(0.0)
            return sim.now

        assert sim.run_process(proc()) == 0.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.timeout(-1.0)


class TestEventOrdering:
    def test_fifo_at_same_time(self):
        sim = Simulator()
        log = []

        def worker(name):
            yield sim.timeout(1.0)
            log.append(name)

        sim.process(worker("a"))
        sim.process(worker("b"))
        sim.run()
        assert log == ["a", "b"]

    def test_time_ordering(self):
        sim = Simulator()
        log = []

        def worker(name, delay):
            yield sim.timeout(delay)
            log.append(name)

        sim.process(worker("late", 10.0))
        sim.process(worker("early", 1.0))
        sim.run()
        assert log == ["early", "late"]

    def test_run_until_stops_early(self):
        sim = Simulator()
        log = []

        def worker():
            yield sim.timeout(10.0)
            log.append("done")

        sim.process(worker())
        sim.run(until=5.0)
        assert log == []
        assert sim.now == 5.0
        sim.run()
        assert log == ["done"]


class TestEvents:
    def test_manual_succeed(self):
        sim = Simulator()
        gate = sim.event()
        result = []

        def waiter():
            value = yield gate
            result.append(value)

        def opener():
            yield sim.timeout(3.0)
            gate.succeed("opened")

        sim.process(waiter())
        sim.process(opener())
        sim.run()
        assert result == ["opened"]

    def test_fail_raises_in_waiter(self):
        sim = Simulator()
        gate = sim.event()

        def waiter():
            yield gate

        def breaker():
            yield sim.timeout(1.0)
            gate.fail(RuntimeError("boom"))

        proc = sim.process(waiter())
        sim.process(breaker())
        sim.run()
        assert proc.triggered and not proc.ok
        assert isinstance(proc.value, RuntimeError)

    def test_double_trigger_rejected(self):
        sim = Simulator()
        gate = sim.event()
        gate.succeed(1)
        with pytest.raises(RuntimeError):
            gate.succeed(2)

    def test_late_waiter_still_woken(self):
        sim = Simulator()
        gate = sim.event()
        gate.succeed("early")

        def late():
            yield sim.timeout(5.0)
            value = yield gate
            return value

        assert sim.run_process(late()) == "early"


class TestProcess:
    def test_return_value(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)
            return 42

        assert sim.run_process(proc()) == 42

    def test_exception_propagates(self):
        sim = Simulator()

        def proc():
            yield sim.timeout(1.0)
            raise ValueError("inner")

        with pytest.raises(ValueError, match="inner"):
            sim.run_process(proc())

    def test_process_waits_on_process(self):
        sim = Simulator()

        def child():
            yield sim.timeout(2.0)
            return "child-result"

        def parent():
            value = yield sim.process(child())
            return (value, sim.now)

        assert sim.run_process(parent()) == ("child-result", 2.0)

    def test_yield_non_event_raises(self):
        sim = Simulator()

        def bad():
            yield 42

        proc = sim.process(bad())
        with pytest.raises(TypeError, match=r"^process yielded 42; processes "
                                            r"must yield Event objects$"):
            sim.run()
        assert not proc.triggered  # never finished

    def test_a_process_waits_on_exactly_the_event_it_last_yielded(self):
        """The resume contract that lets ``_resume`` trust every wakeup:
        after each entry, a live process's one resume callback is on the
        callback list of the event it waits on, once, and on no other
        event's — through timeouts, an inline wake, an expired and an
        answered bounded wait, ``AllOf``, a late wait on a processed
        event, a wait on another process, and ``spawn``."""
        sim = Simulator()
        events = []

        def track(event):
            events.append(event)
            return event

        def woken_at(delay, value):
            event = track(sim.event())
            sim.call_later(delay, lambda: event.wake(value))
            return event

        def child(delay):
            yield track(sim.timeout(delay))
            return delay

        def bounded(wait, answer_after):
            event = track(sim.event())
            sim.call_later(wait, partial(expire, event))
            if answer_after is not None:
                sim.call_later(answer_after, lambda: event.succeed("answer"))
            return event

        log = []

        def main():
            yield track(sim.timeout(1.0))
            log.append((yield woken_at(0.5, "woken")))
            log.append((yield bounded(0.25, None)) is TIMED_OUT)
            log.append((yield bounded(0.75, 0.5)))
            both = track(sim.all_of([track(sim.timeout(0.5)),
                                     woken_at(0.25, "inner")]))
            log.append(sorted(map(repr, (yield both).values())))
            processed = track(sim.event())
            processed.succeed("processed")
            yield track(sim.timeout(0.1))
            log.append((yield processed))  # a late wait: resumes at once
            sim.spawn(child(0.3))
            log.append((yield track(sim.process(child(0.2)))))
            yield track(sim.timeout(0.5))

        track(sim.process(main()))

        def owner(callback):
            owner = getattr(callback, "__self__", None)
            return owner if isinstance(owner, Process) else None

        steps = 0
        while sim._heap:
            sim.step()
            steps += 1
            # Every event there is: the scenario's, the queued ones and
            # the processes; every process: started or still to start.
            candidates = {id(e): e for e in events}
            candidates.update((id(entry[2]), entry[2])
                              for entry in sim._heap if entry[2] is not None)
            live = {owner(entry[3]) for entry in sim._heap}
            for event in list(candidates.values()):
                live.update(map(owner, event.callbacks or ()))
            live.update(e for e in candidates.values()
                        if isinstance(e, Process))
            candidates.update((id(p), p) for p in live if p is not None)
            for process in live - {None}:
                if process.triggered:
                    continue  # finished: waits on nothing
                holders = [event for event in candidates.values()
                           for callback in event.callbacks or ()
                           if callback is process._resume_cb]
                started = process._waiting_on is not None
                assert holders == ([process._waiting_on] if started else [])
        assert steps > 15
        assert log == ["woken", True, "answer", ["'inner'", "None"],
                       "processed", 0.2]


class TestComposition:
    def test_all_of_waits_for_all(self):
        sim = Simulator()

        def proc():
            a = timer(sim, 1.0, "a")
            b = timer(sim, 5.0, "b")
            results = yield sim.all_of([a, b])
            return (sim.now, sorted(results.values()))

        assert sim.run_process(proc()) == (5.0, ["a", "b"])

    def test_empty_all_of_fires_immediately(self):
        sim = Simulator()

        def proc():
            yield sim.all_of([])
            return sim.now

        assert sim.run_process(proc()) == 0.0

    def test_deadlock_detected(self):
        sim = Simulator()

        def stuck():
            yield sim.event()  # never triggered

        with pytest.raises(RuntimeError, match="deadlock"):
            sim.run_process(stuck())

    def test_deadlock_names_where_the_process_is_stuck(self):
        sim = Simulator()

        def await_both():
            yield sim.all_of([sim.timeout(1.0), sim.event()])  # one never fires

        def consumer():
            yield sim.timeout(1.0)
            yield from await_both()

        with pytest.raises(RuntimeError) as caught:
            sim.run_process(consumer())
        line = await_both.__code__.co_firstlineno + 1
        assert str(caught.value) == (
            f"process did not finish (deadlock?): {consumer.__qualname__} "
            f"suspended in {await_both.__qualname__} (test_sim_engine.py:{line}), "
            "waiting on AllOf"
        )


class TestEngineEdges:
    def test_fail_then_late_waiter_raises(self):
        sim = Simulator()
        gate = sim.event()
        gate.fail(RuntimeError("early failure"))

        def late():
            yield sim.timeout(5.0)
            try:
                yield gate  # already processed: late _add_callback path
            except RuntimeError as exc:
                return ("raised", str(exc), sim.now)

        assert sim.run_process(late()) == ("raised", "early failure", 5.0)

    def test_late_add_callback_on_failed_event_runs_immediately(self):
        sim = Simulator()
        gate = sim.event()
        gate.fail(ValueError("boom"))
        sim.run()
        assert gate.callbacks is None and not gate.ok  # processed
        seen = []
        gate._add_callback(seen.append)
        assert seen == [gate]

    def test_same_time_entries_run_in_plain_when_eid_order(self):
        # At t=1.0 the heap holds the two timeouts scheduled at t=0; a's
        # zero-delay wait, pushed while a runs, gets the youngest eid.
        # Plain (when, eid) order: a's timeout, b's, then a's wait.
        sim = Simulator()
        log = []

        def a():
            yield sim.timeout(1.0)
            log.append("a1")
            yield sim.timeout(0.0)
            log.append("a2")

        def b():
            yield sim.timeout(1.0)
            log.append("b1")

        sim.process(a())
        sim.process(b())
        sim.run()
        assert log == ["a1", "b1", "a2"]

    def test_run_until_boundary_is_inclusive(self):
        sim = Simulator()
        log = []

        def worker():
            yield sim.timeout(5.0)
            log.append("at-boundary")
            yield sim.timeout(0.0)
            log.append("still-at-boundary")
            yield sim.timeout(0.1)
            log.append("past-boundary")

        sim.process(worker())
        sim.run(until=5.0)
        # Entries exactly at the boundary run (zero-delay ones too); the
        # first strictly-later entry does not, and the clock parks there.
        assert log == ["at-boundary", "still-at-boundary"]
        assert sim.now == 5.0
        sim.run()
        assert log[-1] == "past-boundary"

    def test_run_until_past_drain_advances_clock(self):
        sim = Simulator()

        def worker():
            yield sim.timeout(2.0)

        sim.process(worker())
        sim.run(until=50.0)
        assert sim.now == 50.0

    def test_step_matches_run_order(self):
        def schedule(sim, log):
            def worker(name, delay):
                yield sim.timeout(delay)
                log.append(name)
                yield sim.timeout(0.0)
                log.append(name + "'")

            sim.process(worker("x", 1.0))
            sim.process(worker("y", 1.0))

        run_log, step_log = [], []
        sim = Simulator()
        schedule(sim, run_log)
        sim.run()
        sim2 = Simulator()
        schedule(sim2, step_log)
        while sim2._heap:
            sim2.step()
        assert step_log == run_log


class TestScheduledCallbacks:
    """``call_later``: a bare callable at a simulated instant."""

    def test_call_later_runs_at_now_plus_delay(self):
        sim = Simulator()
        seen = []
        sim.call_later(1.5, lambda: seen.append(sim.now))
        sim.call_later(0.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [0.0, 1.5]

    def test_one_eid_each_and_scheduling_order_at_one_instant(self):
        sim = Simulator()
        log = []
        before = sim._eid
        sim.call_later(1.0, lambda: log.append("later"))
        timeout = sim.timeout(1.0)
        timeout.callbacks.append(lambda event: log.append("timeout"))
        sim.call_later(1.0, lambda: log.append("later again"))
        assert sim._eid - before == 3
        sim.run()
        # Same instant: exact scheduling order, thunks and events alike.
        assert log == ["later", "timeout", "later again"]

    def test_negative_delay_names_the_value(self):
        sim = Simulator()
        before = sim._eid
        with pytest.raises(ValueError, match="-2.5"):
            sim.call_later(-2.5, lambda: None)
        with pytest.raises(ValueError, match="nan"):
            sim.call_later(float("nan"), lambda: None)
        assert sim._eid == before and not sim._heap

    @pytest.mark.parametrize("until", [None, 10.0])
    def test_exception_in_callback_leaves_the_queues_consistent(self, until):
        sim = Simulator()
        log = []
        boom = RuntimeError("boom")

        def explode():
            raise boom

        sim.call_later(1.0, lambda: log.append("before"))
        sim.call_later(1.0, explode)
        sim.call_later(1.0, lambda: log.append("after"))
        sim.call_later(2.0, lambda: log.append("later"))
        with pytest.raises(RuntimeError) as caught:
            sim.run(until=until)
        assert caught.value is boom  # unchanged, not wrapped
        assert log == ["before"] and sim.now == 1.0
        sim.run(until=until)  # continues with the entry after the bad one
        assert log == ["before", "after", "later"]

    def test_exception_in_callback_propagates_out_of_step(self):
        sim = Simulator()
        log = []

        def explode():
            raise KeyError("lost")

        sim.call_later(0.0, explode)
        sim.call_later(0.0, lambda: log.append("next"))
        with pytest.raises(KeyError, match="lost"):
            sim.step()
        sim.step()
        assert log == ["next"] and not sim._heap

    def test_run_until_leaves_later_callbacks_queued(self):
        sim = Simulator()
        log = []
        sim.call_later(1.0, lambda: log.append(1.0))
        sim.call_later(2.0, lambda: log.append(2.0))
        sim.call_later(2.0, lambda: log.append("2.0 again"))
        sim.run(until=1.0)
        assert log == [1.0] and sim.now == 1.0
        sim.run(until=1.5)
        assert log == [1.0] and sim.now == 1.5
        sim.run()
        # The entry put back at the horizon kept its place in the order.
        assert log == [1.0, 2.0, "2.0 again"] and sim.now == 2.0

    def test_factories_stay_replaceable_instance_attributes(self):
        """perfbench's ledger counts engine entries by wrapping these."""
        sim = Simulator()
        calls = []
        for name in ("timeout", "event", "process"):
            original = getattr(sim, name)

            def counting(*args, _name=name, _original=original):
                calls.append(_name)
                return _original(*args)

            setattr(sim, name, counting)

        def worker():
            yield sim.timeout(1.0)
            gate = sim.event()
            gate.succeed()
            yield gate

        sim.run_process(worker())
        assert calls == ["process", "timeout", "event"]


class TestInlineWake:
    """``Event.wake``: trigger and run the callbacks inside the current
    entry — no eid, no queued hop."""

    def test_waiter_resumes_inside_the_call_and_no_eid_is_spent(self):
        sim = Simulator()
        gate = sim.event()
        log = []

        def waiter():
            value = yield gate
            log.append(("woken", value, sim.now))
            yield sim.timeout(1.0)
            log.append(("later", sim.now))

        sim.process(waiter())
        sim.run()  # the waiter is parked on the gate
        before = sim._eid

        def deliver():
            gate.wake("payload")
            log.append("after wake")  # the waiter already ran

        sim.call_later(2.0, deliver)
        sim.run()
        assert log == [("woken", "payload", 2.0), "after wake",
                       ("later", 3.0)]
        # deliver, the waiter's timeout, its completion: nothing for the wake.
        assert sim._eid - before == 3
        assert gate.triggered and gate.callbacks is None and gate.ok

    def test_waking_a_triggered_event_raises(self):
        sim = Simulator()
        for trigger in (lambda e: e.succeed(1), lambda e: e.wake(1),
                        lambda e: e.fail(KeyError("x"))):
            event = sim.event()
            trigger(event)
            with pytest.raises(RuntimeError, match="already triggered"):
                event.wake(2)
        # ... and the other way round: a woken event cannot be re-triggered.
        event = sim.event()
        event.wake()
        with pytest.raises(RuntimeError, match="already triggered"):
            event.succeed()

    def test_late_yield_on_a_woken_event_resumes_at_once_with_its_value(self):
        sim = Simulator()
        gate = sim.event()
        gate.wake(41)  # nobody waiting yet
        before = sim._eid

        def late():
            value = yield gate
            return value + 1, sim.now

        assert sim.run_process(late()) == (42, 0.0)
        assert sim._eid - before == 2  # bootstrap and completion only

    @pytest.mark.parametrize("until", [None, 10.0])
    def test_exception_in_a_woken_callback_leaves_the_queues_consistent(
            self, until):
        sim = Simulator()
        log = []
        boom = RuntimeError("boom")
        gate = sim.event()

        def explode(event):
            raise boom

        gate.callbacks.append(lambda event: log.append("first waiter"))
        gate.callbacks.append(explode)
        sim.call_later(1.0, lambda: log.append("before"))
        sim.call_later(1.0, lambda: gate.wake())
        sim.call_later(1.0, lambda: log.append("after"))
        sim.call_later(2.0, lambda: log.append("later"))
        with pytest.raises(RuntimeError) as caught:
            sim.run(until=until)
        assert caught.value is boom  # unchanged, not wrapped
        assert log == ["before", "first waiter"] and sim.now == 1.0
        assert gate.callbacks is None  # processed once, for good
        sim.run(until=until)  # continues with the entry after the bad one
        assert log == ["before", "first waiter", "after", "later"]

    def test_exception_in_a_woken_callback_propagates_out_of_step(self):
        sim = Simulator()
        log = []
        gate = sim.event()

        def explode(event):
            raise KeyError("lost")

        gate.callbacks.append(explode)
        sim.call_later(0.0, lambda: gate.wake())
        sim.call_later(0.0, lambda: log.append("next"))
        with pytest.raises(KeyError, match="lost"):
            sim.step()
        sim.step()
        assert log == ["next"] and not sim._heap


class TestSpawn:
    """``spawn``: a process nobody waits on — same start, no completion
    entry, failures out of ``run()``."""

    def test_starts_at_the_place_process_would_and_ends_without_an_entry(
            self):
        for start in ("process", "spawn"):
            sim = Simulator()
            log = []

            def body():
                log.append(("started", sim.now))
                yield sim.timeout(1.0)
                log.append(("done", sim.now))

            sim.call_later(0.0, lambda: log.append("before"))
            before = sim._eid
            getattr(sim, start)(body())
            sim.call_later(0.0, lambda: log.append("after"))
            sim.run()
            assert log == ["before", ("started", 0.0), "after",
                           ("done", 1.0)]
            # bootstrap, "after", the timeout (+ completion for process)
            assert sim._eid - before == (4 if start == "process" else 3)

    def test_returns_nothing(self):
        sim = Simulator()

        def idle():
            return
            yield

        assert sim.spawn(idle()) is None
        sim.run()

    def test_failure_raises_out_of_run_with_its_traceback(self):
        sim = Simulator()
        log = []

        def failing():
            yield sim.timeout(1.0)
            raise KeyError("lost")

        sim.spawn(failing())
        sim.call_later(2.0, lambda: log.append("later"))
        with pytest.raises(KeyError, match="lost") as caught:
            sim.run()
        assert sim.now == 1.0
        frames = [entry.name for entry in caught.traceback]
        assert "failing" in frames  # the generator's own frame
        sim.run()  # the queues stay consistent: the next entry runs
        assert log == ["later"]

    def test_a_process_stores_the_failure_a_spawn_raises(self):
        sim = Simulator()

        def failing():
            raise ValueError("quiet")
            yield

        process = sim.process(failing())
        sim.run()  # stored on the event for whoever waits on it
        assert not process.ok and isinstance(process.value, ValueError)
        sim.spawn(failing())
        with pytest.raises(ValueError, match="quiet"):
            sim.run()

    def test_failure_while_woken_inline_propagates_to_the_waker(self):
        sim = Simulator()
        gate = sim.event()

        def waiter():
            yield gate
            raise RuntimeError("woken into a bug")

        sim.spawn(waiter())
        sim.run()
        with pytest.raises(RuntimeError, match="woken into a bug"):
            gate.wake()


@pytest.fixture
def refcount_only():
    """The cyclic GC off for the test: only refcounting frees."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.mark.usefixtures("refcount_only")
class TestFinishedProcessesAreFreedByRefcount:
    """A finished process holds no reference to itself: the entry that
    finishes it frees it and its generator, with no cyclic GC to find
    them. The generator stands in for both (the process holds it, and
    ``Process`` has no weakref slot)."""

    @staticmethod
    def body(sim, raises):
        yield sim.timeout(1.0)
        if raises:
            raise ValueError("ended")
        return "returned"

    @pytest.mark.parametrize("raises", [False, True])
    def test_a_spawned_process(self, raises):
        sim = Simulator()
        generator = self.body(sim, raises)
        freed = weakref.ref(generator)
        sim.spawn(generator)
        del generator
        sim.step()  # the bootstrap: it waits on its timeout
        assert freed() is not None
        try:
            sim.step()  # the timeout: it returns, or raises out of step()
        except ValueError:
            assert raises
        else:
            assert not raises
        assert freed() is None

    @pytest.mark.parametrize("raises", [False, True])
    def test_an_awaited_process(self, raises):
        sim = Simulator()
        generator = self.body(sim, raises)
        freed = weakref.ref(generator)
        children = [generator]
        outcome = []
        del generator

        def parent():
            try:
                outcome.append((yield sim.process(children.pop())))
            except ValueError as failure:
                outcome.append(str(failure))

        sim.spawn(parent())
        sim.step()  # the parent starts the child and waits on it
        sim.step()  # the child's bootstrap: it waits on its timeout
        sim.step()  # the child finishes; its completion entry is queued
        assert freed() is not None and not outcome
        sim.step()  # the completion entry resumes the parent
        assert outcome == ["ended" if raises else "returned"]
        assert freed() is None

    @pytest.mark.parametrize("raises", [False, True])
    def test_a_process_run_to_completion(self, raises):
        """``run_process`` re-raises a failure through ``result()``: the
        traceback's frames must not hold the process, or the failure is
        a cycle through it."""
        sim = Simulator()
        generator = self.body(sim, raises)
        freed = weakref.ref(generator)
        try:
            outcome = sim.run_process(generator)
        except ValueError as failure:
            outcome = str(failure)
        del generator
        assert outcome == ("ended" if raises else "returned")
        assert freed() is None


def sleep_each(sim, lead, delays, finished):
    """Process: sleep *lead*, then every delay in turn, one entry each."""
    yield sim.timeout(lead)
    for delay in delays:
        yield sim.timeout(delay)
    finished.append(sim.now)


def sleep_once(sim, lead, delays, finished, instant):
    """Process: sleep *lead*, then once until ``instant(now, delays)``."""
    yield sim.timeout(lead)
    yield sim.timeout_at(instant(sim.now, delays))
    finished.append(sim.now)


def left_fold(now, delays):
    when = now
    for delay in delays:
        when += delay
    return when


def summed_first(now, delays):
    """The mutant: adds the delays together before adding ``now``."""
    return now + sum(delays)


def chain_and_single_sleep(lead, delays, instant):
    """Finish instants of the sleep-by-sleep chain and of the one sleep."""
    finished = []
    for sleeper in (
        lambda sim: sleep_each(sim, lead, delays, finished),
        lambda sim: sleep_once(sim, lead, delays, finished, instant),
    ):
        sim = Simulator()
        sim.run_process(sleeper(sim))
    return finished


DELAYS = st.lists(
    st.floats(min_value=0.0, max_value=1e3, allow_nan=False), max_size=8)


class TestTimeoutAt:
    """``timeout_at``: an event at an absolute simulated instant."""

    def test_fires_at_exactly_that_float(self):
        sim = Simulator()
        when = (0.1 + 0.3) + 1e-06  # now + (when - now) lands an ulp short

        def later():
            yield sim.timeout(0.1)
            assert sim.now + (when - sim.now) != when
            yield sim.timeout_at(when)
            return sim.now

        assert sim.run_process(later()) == when

    def test_now_runs_in_eid_order_at_its_instant(self):
        sim = Simulator()
        log = []
        sim.call_later(0.0, lambda: log.append("first"))
        before = sim._eid
        event = sim.timeout_at(sim.now)
        event.callbacks.append(lambda event: log.append("second"))
        sim.call_later(0.0, lambda: log.append("third"))
        assert sim._eid - before == 2
        sim.run()
        assert log == ["first", "second", "third"] and sim.now == 0.0

    def test_later_is_one_heap_entry_in_scheduling_order(self):
        sim = Simulator()
        log = []
        before = sim._eid
        sim.timeout(1.0).callbacks.append(lambda event: log.append("timeout"))
        sim.timeout_at(1.0).callbacks.append(lambda event: log.append("at"))
        sim.call_later(1.0, lambda: log.append("call"))
        assert sim._eid - before == 3
        sim.run()
        assert log == ["timeout", "at", "call"]

    def test_past_and_nan_raise_and_leave_the_queues_untouched(self):
        sim = Simulator()
        sim.run(until=3.0)
        before = sim._eid
        with pytest.raises(ValueError, match=r"2\.0.*3\.0"):
            sim.timeout_at(2.0)
        with pytest.raises(ValueError, match="nan"):
            sim.timeout_at(float("nan"))
        assert sim._eid == before and not sim._heap

    def test_a_wrapped_event_factory_sees_one_call_per_wait(self):
        """perfbench's ledger counts engine entries by wrapping the public
        factories: a wait that bypassed them would vanish from its count."""
        sim = Simulator()
        original, calls = sim.event, []
        sim.event = lambda: calls.append("event") or original()
        sim.timeout_at(1.0)
        assert calls == ["event"]

    @given(lead=st.floats(min_value=0.0, max_value=1e3), delays=DELAYS)
    def test_one_sleep_to_the_left_fold_ends_where_the_chain_ends(
            self, lead, delays):
        chain, single = chain_and_single_sleep(lead, delays, left_fold)
        assert chain == single

    def test_summing_the_delays_first_is_caught(self):
        """The mutant check: the comparison above must tell ``now + (a +
        b)`` from ``(now + a) + b``."""
        chain, single = chain_and_single_sleep(0.1, [0.2, 0.3], summed_first)
        assert chain == (0.1 + 0.2) + 0.3 != single == 0.1 + (0.2 + 0.3)
        chain, single = chain_and_single_sleep(0.1, [0.2, 0.3], left_fold)
        assert chain == single


class TestExpireLater:
    """``Simulator.expire_later``: a bounded wait's expiry, and the
    engine dropping the expiries whose wait was answered."""

    class Compacting(Simulator):
        """Drops answered expiries on every ``expire_later`` call."""

        def expire_later(self, delay, event):
            self._compact_at = 0
            super().expire_later(delay, event)

    class Keeping(Simulator):
        """Never drops one: every expiry pops, as a no-op if answered."""

        def expire_later(self, delay, event):
            self._compact_at = float("inf")
            super().expire_later(delay, event)

    DELAY = st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.5])
    STEP = st.one_of(
        st.tuples(st.just("sleep"), DELAY),
        # A bounded wait: its expiry after the wait, an answer (succeed
        # or an inline wake) after ``answer`` or none at all.
        st.tuples(st.just("bounded"), DELAY,
                  st.one_of(st.none(), DELAY), st.booleans()),
        st.tuples(st.just("wake"), DELAY),
    )

    @staticmethod
    def play(sim, actors, untils):
        """Run *actors* (lists of steps) with ``run(until)`` at each of
        *untils*, then drain: the ``(instant, tag)`` log, and the clock
        and ``_eid`` after every run."""
        log = []

        def answer(event, inline):
            if event.triggered:
                return
            if inline:
                event.wake("answer")
            else:
                event.succeed("answer")

        def actor(name, steps):
            for index, step in enumerate(steps):
                tag = f"{name}{index}"
                if step[0] == "sleep":
                    yield sim.timeout(step[1])
                elif step[0] == "wake":
                    event = sim.event()
                    sim.call_later(step[1], partial(event.wake, "woken"))
                    log.append((sim.now, tag, (yield event)))
                    continue
                else:
                    __, wait, after, inline = step
                    event = sim.event()
                    sim.expire_later(wait, event)
                    if after is not None:
                        sim.call_later(after, partial(answer, event, inline))
                    outcome = yield event
                    log.append((sim.now, tag,
                                "timeout" if outcome is TIMED_OUT else outcome))
                    continue
                log.append((sim.now, tag, "slept"))

        for name, steps in zip("abcdef", actors):
            sim.spawn(actor(name, steps))
        clocks = []
        for until in untils:
            sim.run(until=until)
            clocks.append((sim.now, sim._eid))
        sim.run()
        clocks.append((sim.now, sim._eid))
        return log, clocks

    @settings(max_examples=300, deadline=None)
    @given(actors=st.lists(st.lists(STEP, max_size=8), min_size=1,
                           max_size=5),
           untils=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.75, 3.0, 6.0]),
                           max_size=3).map(sorted))
    def test_dropping_answered_expiries_changes_nothing_observable(
            self, actors, untils):
        dropped = self.play(self.Compacting(), actors, untils)
        kept = self.play(self.Keeping(), actors, untils)
        assert dropped == kept

    def test_an_unanswered_expiry_survives_and_an_answered_one_goes(self):
        sim = self.Compacting()
        pending, answered, last = sim.event(), sim.event(), sim.event()
        sim.expire_later(1.0, pending)
        sim.expire_later(5.0, answered)
        answered.succeed("answer")
        sim.expire_later(3.0, last)  # the pass drops answered's expiry
        assert sorted(entry[0] for entry in sim._heap) == [0.0, 1.0, 3.0]
        sim.run()
        assert pending.value is TIMED_OUT and last.value is TIMED_OUT
        assert answered.value == "answer" and sim._eid == 4 and sim.now == 5.0

    def test_a_drain_ends_at_the_latest_dropped_expiry(self):
        """The no-op the parent popped last left the clock at its instant;
        a drain still ends there, and ``run(until)`` still at ``until``."""
        for until, clock in ((None, 9.0), (4.0, 4.0), (20.0, 20.0)):
            sim = self.Compacting()
            answered = sim.event()
            sim.expire_later(9.0, answered)
            answered.succeed()
            sim.expire_later(2.0, sim.event())
            assert max(entry[0] for entry in sim._heap) == 2.0
            sim.run(until)
            assert sim.now == clock
            sim.run()
            assert sim.now == max(clock, 9.0)

    def test_past_and_nan_raise(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="-1.0"):
            sim.expire_later(-1.0, sim.event())
        with pytest.raises(ValueError, match="nan"):
            sim.expire_later(float("nan"), sim.event())
        assert sim._eid == 0 and not sim._heap

    def test_answered_rpc_expiries_keep_the_heap_bounded(self):
        """A client making timed calls that are all answered: the heap
        stays within twice its live entries plus the floor, where a
        heap that keeps every answered expiry would hold one per call."""
        from repro.hw.net import Network
        from repro.sim.engine import COMPACT_FLOOR, _PENDING
        from repro.transport import RpcClient, RpcServer, UdpSocket

        sim = Simulator()
        network = Network(sim)
        server = RpcServer(sim, UdpSocket(sim, network.endpoint("server")))
        server.register("echo", lambda value: value)
        client = RpcClient(sim, UdpSocket(sim, network.endpoint("client")))
        calls = 400
        lengths = []

        def answered_expiry(entry):
            thunk = entry[3]
            return (isinstance(thunk, partial) and thunk.func is expire
                    and thunk.args[0]._value is not _PENDING)

        def caller():
            for index in range(calls):
                assert (yield from client.call(
                    "server", "echo", index, timeout=1.0, retries=0)) == index
                live = sum(not answered_expiry(e) for e in sim._heap)
                assert len(sim._heap) <= 2 * live + COMPACT_FLOOR
                lengths.append(len(sim._heap))

        sim.run_process(caller())
        assert max(lengths) <= 2 * COMPACT_FLOOR < calls
        assert sim.now >= 1.0  # the last expiry's instant, dropped or not
