"""Tests for the overload-protection stack (bounded queues, admission,
circuit breakers, brownout) and its integrations into the RPC server
and the failover client."""

import pytest

from repro.common.errors import ConfigurationError
from repro.eval.overload import run_overload
from repro.faults import FaultInjector, FaultKind, FaultPlan
from repro.hw.net import Network
from repro.hw.net.link import Link
from repro.hw.net.port import NetworkPort
from repro.overload import (
    AdmissionController,
    BoundedQueue,
    BreakerState,
    BrownoutController,
    BrownoutMode,
    CircuitBreaker,
    Priority,
    QueuePolicy,
    TokenBucket,
)
from repro.sharding import FailoverKvClient, ShardedKvCluster
from repro.sharding.failover import BREAKER_RESET
from repro.sim import Simulator
from repro.telemetry import (
    Sampler,
    SloMonitor,
    SloRule,
    prometheus_text,
)
from repro.transport import (
    RetryBudget,
    RpcClient,
    RpcError,
    RpcServer,
    UdpSocket,
)

from tests.capture import StubSocket
from tests.prometheus_reference import parse_prometheus_text


def counter(sim, path):
    """The value of the registry counter at *path*."""
    return sim.telemetry.get(path).value


def advance(sim, dt):
    """Run the simulator forward by ``dt`` of simulated time."""
    def waiter():
        yield sim.timeout(dt)
    sim.run_process(waiter())


def make_queue(sim, capacity=4, policy=QueuePolicy.FIFO, **kwargs):
    drops = []
    queue = BoundedQueue(
        sim, sim.telemetry.unique_scope("q"), capacity, policy=policy,
        on_drop=lambda item, reason: drops.append((item, reason)), **kwargs
    )
    return queue, drops


class TestBoundedQueue:
    def test_fifo_and_lifo_ordering(self):
        sim = Simulator()
        fifo, __ = make_queue(sim, policy=QueuePolicy.FIFO)
        lifo, __ = make_queue(sim, policy=QueuePolicy.LIFO)
        for queue in (fifo, lifo):
            for item in ("a", "b", "c"):
                assert queue.try_put(item)
        assert [fifo.poll() for __ in range(3)] == ["a", "b", "c"]
        assert [lifo.poll() for __ in range(3)] == ["c", "b", "a"]

    @pytest.mark.parametrize("policy", list(QueuePolicy))
    def test_an_empty_dequeue_leaves_the_gauges_as_they_are(self, policy):
        """``poll()`` and ``get()`` on an empty queue change no gauge and
        no snapshot byte: every mutation synced them already. Both on a
        server queue whose parked workers were never handed an item and
        on a queue that was filled and drained."""
        sim = Simulator()
        server = RpcServer(sim, StubSocket(sim, "srv"), queue_capacity=4,
                           queue_policy=policy, workers=2)
        drained, __ = make_queue(sim, policy=policy)
        for item in ("a", "b"):
            drained.try_put(item)
        sim.run()  # the workers start, find nothing and park
        assert sorted(drained.poll() for __ in range(2)) == ["a", "b"]

        def gauges():
            return [repr(sim.telemetry.get(f"{path}.{name}").value)
                    for path in ("rpc.server.srv.queue", "q")
                    for name in ("depth", "saturation")]

        before = gauges(), sim.telemetry.snapshot_bytes()
        assert before[0] == ["0", "0.0", "0", "0.0"]
        for queue in (server.queue, drained):
            assert queue.poll() is None
            assert not queue.get().triggered
            assert (gauges(), sim.telemetry.snapshot_bytes()) == before

    def test_full_queue_rejects_at_enqueue(self):
        sim = Simulator()
        queue, drops = make_queue(sim, capacity=2)
        assert queue.try_put(1) and queue.try_put(2)
        assert not queue.try_put(3)  # full: rejected, never buffered
        assert len(queue) == 2
        assert queue.dropped_full == 1
        assert drops == [(3, "full")]
        assert queue.saturation == 1.0

    def test_direct_handoff_to_waiting_getter(self):
        sim = Simulator()
        queue, __ = make_queue(sim, capacity=1)

        def consumer():
            item = yield queue.get()  # queue empty: waits
            return item, sim.now

        def producer():
            yield sim.timeout(1e-3)
            assert queue.try_put("direct")

        sim.process(producer())
        item, at = sim.run_process(consumer())
        assert item == "direct"
        assert at == pytest.approx(1e-3)
        assert len(queue) == 0  # handed off, never buffered

    def test_codel_drops_stale_entries_at_dequeue(self):
        sim = Simulator()
        queue, drops = make_queue(
            sim, capacity=8, policy=QueuePolicy.CODEL,
            codel_target=1e-3, codel_interval=5e-3,
        )
        for item in ("a", "b", "c"):
            queue.try_put(item)
        # First dequeue above target: interval clock starts, but the
        # entry is still served.
        advance(sim, 2e-3)
        assert queue.poll() == "a"
        # Sojourn has now been above target for a full interval: the
        # stale entries are shed oldest-first.
        advance(sim, 6e-3)
        assert queue.poll() is None
        assert queue.dropped_deadline == 2
        assert drops == [("b", "deadline"), ("c", "deadline")]
        # A fresh entry (below target) resets the interval clock.
        queue.try_put("d")
        advance(sim, 0.5e-3)
        assert queue.poll() == "d"
        assert queue.dropped_deadline == 2

    def test_depth_gauges_match_telemetry_snapshot(self):
        sim = Simulator()
        queue, __ = make_queue(sim, capacity=4)
        queue.try_put("x")
        queue.try_put("y")
        assert sim.telemetry.gauge("q.depth").value == len(queue) == 2
        assert sim.telemetry.gauge("q.saturation").value == pytest.approx(0.5)
        snapshot = sim.telemetry.snapshot_bytes().decode()
        assert "q.depth" in snapshot
        queue.poll()
        assert sim.telemetry.gauge("q.depth").value == 1

    def test_invalid_configs_rejected(self):
        sim = Simulator()
        scope = sim.telemetry.unique_scope("bad")
        with pytest.raises(ConfigurationError):
            BoundedQueue(sim, scope, 0)
        with pytest.raises(ConfigurationError):
            BoundedQueue(sim, scope, 4, codel_target=0.0)


class TestTokenBucket:
    def test_deterministic_lazy_refill(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate=1000.0, capacity=10.0)
        for __ in range(10):
            assert bucket.try_take()
        assert not bucket.try_take()  # drained, clock unchanged
        advance(sim, 5e-3)  # 1000/s * 5ms = 5 tokens
        assert bucket.tokens == pytest.approx(5.0)
        assert bucket.level == pytest.approx(0.5)
        for __ in range(5):
            assert bucket.try_take()
        assert not bucket.try_take()

    def test_set_rate_settles_accrual_at_old_rate(self):
        sim = Simulator()
        bucket = TokenBucket(sim, rate=1000.0, capacity=10.0)
        for __ in range(10):
            bucket.try_take()
        advance(sim, 2e-3)  # 2 tokens accrue at the old rate
        bucket.set_rate(1.0)
        assert bucket.tokens == pytest.approx(2.0)

    def test_invalid_configs_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            TokenBucket(sim, rate=0.0, capacity=1.0)
        with pytest.raises(ConfigurationError):
            TokenBucket(sim, rate=1.0, capacity=0.0)


def make_admission(sim, rate=1000.0, **kwargs):
    """A controller whose bucket holds ``rate / 100`` tokens (10 here)."""
    return AdmissionController(
        sim, sim.telemetry.unique_scope("adm"), rate, **kwargs
    )


class TestAdmissionController:
    def test_sheds_scrub_then_background_then_user(self):
        sim = Simulator()  # clock pinned at 0: no refill between admits
        adm = make_admission(sim)
        assert adm.admit(Priority.SCRUB)  # full bucket admits everyone
        for __ in range(5):
            assert adm.admit(Priority.USER)
        # 4/10 tokens left: scrub (needs >= 0.50) is shed first...
        assert not adm.admit(Priority.SCRUB)
        # ...while background (needs >= 0.25) still gets through.
        assert adm.admit(Priority.BACKGROUND)
        for __ in range(2):
            assert adm.admit(Priority.USER)
        # 1/10 left: background now shed too, user still admitted.
        assert not adm.admit(Priority.BACKGROUND)
        assert adm.admit(Priority.USER)
        # Empty: even user is refused.
        assert not adm.admit(Priority.USER)
        assert counter(sim, "adm.admitted.user") == 8
        assert adm.shed(Priority.SCRUB) == 1
        assert adm.shed(Priority.BACKGROUND) == 1
        assert adm.shed(Priority.USER) == 1

    def test_aimd_decrease_and_climb_back(self):
        sim = Simulator()
        adm = make_admission(sim, rate=1000.0)
        adm.multiplicative_decrease = 0.5  # lowered from 0.85: halving
        adm.record_overload()
        assert adm.tick() == pytest.approx(500.0)  # multiplicative halving
        # The overload flag is one-shot: the next window is healthy.
        assert adm.tick() == pytest.approx(550.0)  # + 5% of initial rate
        assert adm.tick(overloaded=True) == pytest.approx(275.0)

    def test_aimd_respects_rate_clamps(self):
        """The rate stays within 5% and 4x of the initial rate."""
        sim = Simulator()
        adm = make_admission(sim, rate=1000.0)
        for __ in range(20):
            adm.tick(overloaded=True)
        assert adm.rate == pytest.approx(50.0)
        for __ in range(100):
            adm.tick()
        assert adm.rate == pytest.approx(4000.0)


def make_breaker(sim, **kwargs):
    kwargs.setdefault("failure_threshold", 3)
    kwargs.setdefault("reset_timeout", 10e-3)
    return CircuitBreaker(sim, sim.telemetry.unique_scope("brk"), **kwargs)


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures(self):
        sim = Simulator()
        breaker = make_breaker(sim)
        for __ in range(2):
            breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()
        assert counter(sim, "brk.rejected") == 1

    def test_success_resets_the_failure_streak(self):
        sim = Simulator()
        breaker = make_breaker(sim)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # streak broken
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state is BreakerState.CLOSED
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN

    def test_half_open_admits_a_single_probe(self):
        """One probe in flight at a time: the storm of callers queued up
        behind an open breaker must not rush the recovering backend all
        at once and re-trip it off its own traffic."""
        sim = Simulator()
        breaker = make_breaker(sim)
        for __ in range(3):
            breaker.record_failure()
        advance(sim, 10e-3)
        # The reset timeout admits exactly one probe...
        assert breaker.allow()
        assert breaker.state is BreakerState.HALF_OPEN
        assert not breaker.allow()  # the probe slot is taken
        assert not breaker.allow()
        assert counter(sim, "brk.rejected") == 2
        # ...and its success closes the circuit again.
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_failed_probe_frees_the_slot_for_the_next_half_open(self):
        sim = Simulator()
        breaker = make_breaker(sim)
        for __ in range(3):
            breaker.record_failure()
        advance(sim, 10e-3)
        assert breaker.allow()
        breaker.record_failure()  # probe failed -> OPEN again
        assert breaker.state is BreakerState.OPEN
        advance(sim, 10e-3)
        # The next half-open round gets a fresh probe slot.
        assert breaker.allow()
        assert not breaker.allow()

    def test_failed_probe_reopens(self):
        sim = Simulator()
        breaker = make_breaker(sim)
        for __ in range(3):
            breaker.record_failure()
        advance(sim, 10e-3)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()  # the reset clock restarted
        advance(sim, 10e-3)
        assert breaker.allow()

    def test_out_of_band_success_closes_an_open_circuit(self):
        """A verified success on a call that bypassed the breaker is
        proof the backend is back — no half-open dance needed."""
        sim = Simulator()
        breaker = make_breaker(sim)
        for __ in range(3):
            breaker.record_failure()
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_transition_log_is_deterministic(self):
        def scripted():
            sim = Simulator()
            breaker = make_breaker(sim)
            for __ in range(3):
                breaker.record_failure()
            advance(sim, 10e-3)
            breaker.allow()
            breaker.record_failure()
            advance(sim, 10e-3)
            breaker.allow()
            breaker.record_success()
            return breaker

        first, second = scripted(), scripted()
        log = first.transition_log_bytes()
        assert log == second.transition_log_bytes()
        assert log.decode().splitlines() == [
            "breaker closed->open at=0.0",
            "breaker open->half-open at=0.01",
            "breaker half-open->open at=0.01",
            "breaker open->half-open at=0.02",
            "breaker half-open->closed at=0.02",
        ]

    def test_invalid_configs_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            make_breaker(sim, failure_threshold=0)
        with pytest.raises(ConfigurationError):
            make_breaker(sim, reset_timeout=0.0)


def make_brownout(sim, dwell=2e-3, recovery=4e-3):
    """A pressure gauge, a sampler, an SLO rule on it, and a controller."""
    pressure = sim.telemetry.gauge("press.level")
    sampler = Sampler(sim.telemetry, sim, period=1e-3)
    sampler.watch("press.level")
    monitor = SloMonitor(
        sampler, [SloRule.parse("press.level value <= 0.5", name="pressure")]
    )
    controller = BrownoutController(
        monitor, sim.telemetry.scope("bo"), dwell=dwell, recovery=recovery,
    )
    return pressure, sampler, controller


class TestOverloadPrometheusExport:
    """Breaker transitions and retry-budget exhaustion are scrapable."""

    def test_breaker_transition_counters_are_scrapable(self):
        sim = Simulator()
        breaker = make_breaker(sim)
        for __ in range(3):
            breaker.record_failure()  # closed -> open
        advance(sim, 11e-3)
        assert breaker.allow()  # open -> half-open probe
        breaker.record_success()  # half-open -> closed
        families = parse_prometheus_text(prometheus_text(sim.telemetry))

        def edge(name):
            family = families[f"repro_brk_transitions_{name}"]
            assert family.kind == "counter"
            __, labels, value = family.samples[0]
            assert labels["path"] == f"brk.transitions.{name}"
            return value

        assert edge("closed_to_open") == 1.0
        assert edge("open_to_half_open") == 1.0
        assert edge("half_open_to_closed") == 1.0

    def test_retry_budget_exhaustion_is_scrapable(self):
        sim = Simulator()
        budget = RetryBudget(
            sim, budget=1, window=1.0,
            metrics=sim.telemetry.unique_scope("rpc.retry_budget"),
        )
        assert budget.try_spend() is True
        assert budget.try_spend() is False
        assert budget.try_spend() is False
        families = parse_prometheus_text(prometheus_text(sim.telemetry))
        granted = families["repro_rpc_retry_budget_granted"]
        exhausted = families["repro_rpc_retry_budget_exhausted"]
        assert granted.kind == "counter"
        assert granted.samples[0][2] == 1.0
        assert exhausted.samples[0][2] == 2.0
        assert exhausted.samples[0][1]["path"] == "rpc.retry_budget.exhausted"


def tick(sim, sampler):
    advance(sim, sampler.period)
    sampler.sample()


def level(brownout):
    """The ladder rung *brownout* stands on (0 is normal)."""
    return brownout.modes.index(brownout.mode)


class TestBrownout:
    def test_escalates_while_firing_and_recovers_after(self):
        sim = Simulator()
        pressure, sampler, brownout = make_brownout(sim)
        pressure.set(1.0)  # objective violated from the first sample
        tick(sim, sampler)
        assert level(brownout) == 1  # first firing tick escalates
        assert brownout.batch_scale == 0.5
        tick(sim, sampler)
        assert level(brownout) == 1  # dwell not yet elapsed
        tick(sim, sampler)
        assert level(brownout) == 2
        assert not brownout.mode.compaction_enabled
        tick(sim, sampler)
        tick(sim, sampler)
        assert level(brownout) == 3  # the ladder's last rung
        assert brownout.serve_stale
        tick(sim, sampler)
        assert level(brownout) == 3  # never past the last mode
        pressure.set(0.0)  # overload clears
        for __ in range(5):
            tick(sim, sampler)
        assert level(brownout) == 2  # one step back per recovery period
        for __ in range(8):
            tick(sim, sampler)
        assert level(brownout) == 0
        directions = [t[3] for t in brownout.transitions]
        assert directions == ["escalate"] * 3 + ["deescalate"] * 3

    def test_transition_log_is_deterministic(self):
        def scripted():
            sim = Simulator()
            pressure, sampler, brownout = make_brownout(sim)
            pressure.set(1.0)
            for __ in range(6):
                tick(sim, sampler)
            pressure.set(0.0)
            for __ in range(12):
                tick(sim, sampler)
            return brownout

        first, second = scripted(), scripted()
        assert first.transition_log_bytes() == second.transition_log_bytes()
        assert len(first.transition_log_bytes()) > 0

    def test_invalid_configs_rejected(self):
        sim = Simulator()
        pressure, sampler, __ = make_brownout(sim)
        monitor = SloMonitor(sampler)
        scope = sim.telemetry.scope("bo2")
        with pytest.raises(ConfigurationError):
            BrownoutController(monitor, scope, modes=(BrownoutMode("only"),))
        with pytest.raises(ConfigurationError):
            BrownoutController(monitor, scope, dwell=0.0)


def rpc_pair(sim, **server_kwargs):
    """A clean client/server RPC pair over symmetric links."""
    client_port = NetworkPort(sim, "client")
    server_port = NetworkPort(sim, "server")
    to_server = Link(sim)
    to_client = Link(sim)
    client_port.attach_tx(to_server)
    server_port.attach_rx(to_server)
    server_port.attach_tx(to_client)
    client_port.attach_rx(to_client)
    server = RpcServer(sim, UdpSocket(sim, server_port), **server_kwargs)
    client = RpcClient(sim, UdpSocket(sim, client_port))
    return server, client


class TestRpcServerOverload:
    def test_bounded_queue_rejects_overflow_fast(self):
        sim = Simulator()
        server, client = rpc_pair(sim, queue_capacity=1, workers=1)

        def slow(x):
            yield sim.timeout(1e-3)
            return x

        server.register("slow", slow)
        outcomes = []

        def one(index):
            try:
                result = yield from client.call(
                    "server", "slow", index, timeout=20e-3, retries=0
                )
                outcomes.append(("ok", result, sim.now))
            except RpcError as error:
                outcomes.append(("err", str(error), sim.now))

        def scenario():
            procs = [sim.process(one(i)) for i in range(3)]
            yield sim.all_of(procs)

        sim.run_process(scenario())
        served = [o for o in outcomes if o[0] == "ok"]
        rejected = [o for o in outcomes if o[0] == "err"]
        # One in service, one queued, the third rejected immediately.
        assert len(served) == 2 and len(rejected) == 1
        assert "overload: dropped (full)" in rejected[0][1]
        assert rejected[0][2] < 1e-3  # refused long before a service time
        assert server.requests_shed == 1

    def test_admission_sheds_by_priority_class(self):
        sim = Simulator()
        admission = AdmissionController(  # a two-token bucket
            sim, sim.telemetry.unique_scope("adm"), rate=200.0
        )
        server, client = rpc_pair(
            sim, admission=admission, queue_capacity=8
        )
        server.register("echo", lambda x: x)

        def scenario():
            # A full bucket admits user calls...
            for index in range(2):
                result = yield from client.call(
                    "server", "echo", index, timeout=10e-3,
                    priority=Priority.USER,
                )
                assert result == index
            # ...but the drained bucket sheds scrub traffic outright.
            with pytest.raises(RpcError, match="admission shed"):
                yield from client.call(
                    "server", "echo", 2, timeout=10e-3,
                    priority=Priority.SCRUB,
                )

        sim.run_process(scenario())
        assert counter(sim, "adm.admitted.user") == 2
        assert admission.shed(Priority.SCRUB) == 1
        assert server.requests_shed == 1


class TestFailoverBreaker:
    def test_open_circuit_gives_immediate_failover_during_blackhole(self):
        """Satellite regression: once the dead head's circuit opens, ops
        stop paying the per-call timeout chain and fail over instantly."""
        sim = Simulator()
        network = Network(sim)
        cluster = ShardedKvCluster(sim, network, dpu_count=3, name="kv")
        plan = FaultPlan(seed=5)
        plan.windowed("head-outage", "kv-dpu-0", FaultKind.NODE_DOWN, 0.0, 1.0)
        injector = FaultInjector(sim, plan)
        client = FailoverKvClient(sim, cluster, "ov-client", 2)
        dead = "kv-dpu-0"
        key = next(
            f"k{i}".encode() for i in range(64)
            if cluster.ring.replicas_of(f"k{i}".encode(), 2)[0] == dead
        )

        def scenario():
            # The chaos-controller idiom: NODE_DOWN windows map onto
            # switch blackholes.
            for address in cluster.addresses:
                if injector.active(address, FaultKind.NODE_DOWN):
                    network.switch.blackhole(address)
            durations = []
            for __ in range(8):
                started = sim.now
                yield from client.put(key, b"value")
                durations.append(sim.now - started)
            value = yield from client.get(key)
            return durations, value

        durations, value = sim.run_process(scenario())
        assert value == b"value"
        breaker = client.breakers[dead]
        assert breaker.state is BreakerState.OPEN
        assert counter(sim, f"dpu.failover.ov-client.breaker.{dead}.rejected") > 0
        # The first puts each burned the head's timeout+retry budget...
        assert durations[0] > client.timeout
        # ...but once the circuit opened, every put completes in well
        # under a single RPC timeout.
        assert all(d < client.timeout for d in durations[3:])

        def recover():
            network.switch.restore(dead)
            yield sim.timeout(BREAKER_RESET)
            acked = yield from client.put(key, b"value2")
            return acked

        acked = sim.run_process(recover())
        # Past the reset timeout the next put is the half-open probe: it
        # succeeds, closes the circuit, and reaches the whole chain again.
        assert breaker.state is BreakerState.CLOSED
        assert acked == 2


class TestE15SameSeedSameBytes:
    def test_report_telemetry_and_series_are_byte_identical(self):
        # One point at 3x capacity for 10 ms: brownout engages, so the
        # transition log is part of what must repeat.
        first = run_overload(multiples=(3.0,), duration=10e-3)
        second = run_overload(multiples=(3.0,), duration=10e-3)
        assert len(first.brownout_log) > 0
        assert first.canonical_bytes() == second.canonical_bytes()
        assert first.telemetry == second.telemetry
        assert first.series == second.series
