"""Tests for simulated resources and stores."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Interrupt, Resource, Simulator, Store


class TestResource:
    def test_grant_immediately_when_free(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)

        def proc():
            yield res.request()
            held_at = sim.now
            res.release()
            return held_at

        assert sim.run_process(proc()) == 0.0

    def test_contention_serializes(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        log = []

        def worker(name, hold):
            yield res.request()
            log.append((name, "got", sim.now))
            yield sim.timeout(hold)
            res.release()

        sim.process(worker("a", 5.0))
        sim.process(worker("b", 1.0))
        sim.run()
        assert log == [("a", "got", 0.0), ("b", "got", 5.0)]

    def test_capacity_two_runs_in_parallel(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        log = []

        def worker(name):
            yield res.request()
            log.append((name, sim.now))
            yield sim.timeout(3.0)
            res.release()

        for name in "abc":
            sim.process(worker(name))
        sim.run()
        assert log == [("a", 0.0), ("b", 0.0), ("c", 3.0)]

    def test_release_without_request_raises(self):
        sim = Simulator()
        res = Resource(sim)
        with pytest.raises(RuntimeError):
            res.release()

    def test_queue_length(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)

        def holder():
            yield res.request()
            yield sim.timeout(10.0)
            res.release()

        def waiter():
            yield sim.timeout(1.0)
            yield res.request()
            res.release()

        sim.process(holder())
        sim.process(waiter())
        sim.run(until=2.0)
        assert res.queue_length == 1
        sim.run()
        assert res.queue_length == 0

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            Resource(Simulator(), capacity=0)

    def test_try_acquire_takes_a_free_unit_without_an_engine_entry(self):
        sim = Simulator()
        res = Resource(sim, capacity=2)
        before = sim._eid
        assert res.try_acquire() and res.try_acquire()
        assert not res.try_acquire()  # both units out
        assert res.in_use == 2 and sim._eid == before
        res.release()
        assert res.in_use == 1 and res.try_acquire()

    def test_acquire_waits_only_when_no_unit_is_free(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        log = []

        def worker(name, hold):
            before = sim._eid
            yield from res.acquire()
            log.append((name, sim.now, sim._eid - before))
            yield sim.timeout(hold)
            res.release()

        sim.process(worker("a", 5.0))
        sim.process(worker("b", 1.0))
        sim.run()
        # "a" took the free unit on the spot; "b" waited for the grant.
        assert [entry[:2] for entry in log] == [("a", 0.0), ("b", 5.0)]
        assert log[0][2] == 0 and log[1][2] > 0

    def test_release_after_try_acquire_serves_waiters_in_fifo_order(self):
        sim = Simulator()
        res = Resource(sim, capacity=1)
        assert res.try_acquire()
        granted = []
        for name in "abc":
            res.request().callbacks.append(
                lambda event, name=name: granted.append(name))
        # A queued waiter is never overtaken: the unit is not free.
        assert not res.try_acquire() and res.queue_length == 3
        for expected in (["a"], ["a", "b"], ["a", "b", "c"]):
            res.release()
            assert not res.try_acquire()  # handed on, not freed
            sim.run()
            assert granted == expected
        res.release()
        assert res.in_use == 0 and res.try_acquire()

    @pytest.mark.parametrize("granted_first", [False, True])
    def test_acquire_withdraws_when_the_waiter_is_interrupted(
            self, granted_first):
        """Queued, or granted in the very instant the interrupt lands
        (the grant still undelivered): either way the unit goes on to
        the next caller, not to a process that will never release it."""
        sim = Simulator()
        res = Resource(sim, capacity=1)
        log = []

        def worker(name, hold):
            try:
                yield from res.acquire()
            except Interrupt:
                log.append((name, "interrupted", sim.now))
                return
            log.append((name, "got", sim.now))
            yield sim.timeout(hold)
            res.release()

        def late():
            yield sim.timeout(3.0)
            yield from worker("c", 1.0)

        sim.process(worker("a", 5.0))
        waiter = sim.process(worker("b", 1.0))
        # At 5.0 the interrupt's delivery is queued ahead of a's release.
        sim.call_at(5.0 if granted_first else 2.0, waiter.interrupt)
        sim.process(late())
        sim.run()
        assert log == [
            ("a", "got", 0.0),
            ("b", "interrupted", 5.0 if granted_first else 2.0),
            ("c", "got", 5.0),
        ]
        assert res.in_use == 0 and res.queue_length == 0
        assert sim.now == 6.0

    @settings(max_examples=200, deadline=None)
    @given(
        capacity=st.integers(min_value=1, max_value=3),
        ops=st.lists(st.sampled_from(["try", "request", "release"]),
                     max_size=40),
    )
    def test_try_acquire_and_request_agree_with_a_reference_counter(
            self, capacity, ops):
        """Any interleaving of try_acquire / request / release grants
        exactly what a counter plus a FIFO of waiters would."""
        sim = Simulator()
        res = Resource(sim, capacity=capacity)
        granted = []  # request ids, in the order their events fired
        held, waiting, expected, next_id = 0, [], [], 0
        for op in ops:
            if op == "try":
                free = held < capacity
                assert res.try_acquire() is free
                held += free
            elif op == "request":
                res.request().callbacks.append(
                    lambda event, rid=next_id: granted.append(rid))
                if held < capacity:
                    held += 1
                    expected.append(next_id)
                else:
                    waiting.append(next_id)
                next_id += 1
            elif held:
                res.release()
                if waiting:
                    expected.append(waiting.pop(0))
                else:
                    held -= 1
            else:
                with pytest.raises(RuntimeError):
                    res.release()
            assert (res.in_use, res.queue_length) == (held, len(waiting))
        sim.run()
        assert granted == expected


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)

        def proc():
            yield store.put("x")
            item = yield store.get()
            return item

        assert sim.run_process(proc()) == "x"

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)

        def consumer():
            item = yield store.get()
            return (item, sim.now)

        def producer():
            yield sim.timeout(4.0)
            yield store.put("late-item")

        consumer_proc = sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert consumer_proc.value == ("late-item", 4.0)

    def test_fifo_order(self):
        sim = Simulator()
        store = Store(sim)
        got = []

        def producer():
            for i in range(3):
                yield store.put(i)

        def consumer():
            for _ in range(3):
                item = yield store.get()
                got.append(item)

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert got == [0, 1, 2]

    def test_bounded_put_blocks(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        log = []

        def producer():
            yield store.put("first")
            log.append(("put-first", sim.now))
            yield store.put("second")
            log.append(("put-second", sim.now))

        def consumer():
            yield sim.timeout(5.0)
            item = yield store.get()
            log.append(("got", item, sim.now))

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert ("put-first", 0.0) in log
        assert ("put-second", 5.0) in log

    def test_len(self):
        sim = Simulator()
        store = Store(sim)

        def proc():
            yield store.put(1)
            yield store.put(2)

        sim.run_process(proc())
        assert len(store) == 2

    def test_put_nowait_hands_to_a_waiting_getter(self):
        sim = Simulator()
        store = Store(sim)

        def consumer():
            item = yield store.get()
            return item, sim.now

        proc = sim.process(consumer())
        sim.call_later(3.0, lambda: store.put_nowait("frame"))
        sim.run()
        assert proc.value == ("frame", 3.0)
        assert len(store) == 0

    def test_put_nowait_appends_without_an_event(self):
        sim = Simulator()
        store = Store(sim)
        before = sim._eid
        assert store.put_nowait("a") is None
        store.put_nowait("b")
        assert sim._eid == before  # nothing scheduled
        assert list(store.items) == ["a", "b"]

    def test_put_nowait_on_a_full_store_names_the_item(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        store.put_nowait("kept")
        with pytest.raises(RuntimeError, match=r"'overflow'.*capacity 1"):
            store.put_nowait("overflow")
        assert list(store.items) == ["kept"]

    def test_blocked_putters_wake_in_fifo_order(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        woken = []

        def producer(name):
            yield store.put(name)
            woken.append(name)

        def consumer():
            yield sim.timeout(1.0)
            for __ in range(4):
                yield store.get()

        for name in ("a", "b", "c", "d"):
            sim.process(producer(name))
        sim.process(consumer())
        sim.run()
        assert woken == ["a", "b", "c", "d"]
