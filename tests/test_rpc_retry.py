"""Tests for RPC timeout/retry over lossy datagram transports."""

import pytest

from repro.common.errors import ConfigurationError
from repro.hw.net.link import Link
from repro.hw.net.port import NetworkPort
from repro.sim import Simulator
from repro.transport import (
    RetryBudget,
    RetryPolicy,
    RpcClient,
    RpcError,
    RpcServer,
    UdpSocket,
)


def deadline_exceeded(sim):
    """Calls of the ``lossy_rpc_pair`` client that ran out of deadline."""
    return sim.telemetry.get("rpc.client.client.deadline_exceeded").value


def lossy_rpc_pair(sim, loss_fn, retry_budget=None):
    """Client whose *requests* traverse a link that loses the frames
    *loss_fn* picks (none when it is None); replies are clean."""
    client_port = NetworkPort(sim, "client")
    server_port = NetworkPort(sim, "server")
    to_server = Link(sim)
    to_client = Link(sim)
    client_port.add_route("*", to_server)
    server_port.attach_rx(to_server)
    server_port.add_route("*", to_client)
    client_port.attach_rx(to_client)
    server = RpcServer(sim, UdpSocket(sim, server_port))
    client = RpcClient(
        sim, UdpSocket(sim, client_port), retry_budget=retry_budget
    )
    if loss_fn is not None:
        # Wrapped after the server's socket installed its listener.
        deliver = to_server.sink
        to_server.sink = lambda f: None if loss_fn(f) else deliver(f)
    return server, client


class TestRetry:
    def test_retry_recovers_lost_request(self):
        sim = Simulator()
        drops = [True, False]  # first request lost, retry delivered

        def loss(frame):
            return drops.pop(0) if drops else False

        server, client = lossy_rpc_pair(sim, loss)
        server.register("echo", lambda x: x)

        def scenario():
            result = yield from client.call(
                "server", "echo", 42, timeout=1e-3, retries=3
            )
            return result, sim.now

        result, elapsed = sim.run_process(scenario())
        assert result == 42
        assert elapsed > 1e-3  # one timeout was paid

    def test_exhausted_retries_raise(self):
        sim = Simulator()
        server, client = lossy_rpc_pair(sim, lambda f: True)  # black hole
        server.register("echo", lambda x: x)

        def scenario():
            yield from client.call(
                "server", "echo", 1, timeout=1e-3, retries=2
            )

        with pytest.raises(RpcError, match="timed out after 3 attempt"):
            sim.run_process(scenario())

    def test_no_timeout_waits_forever(self):
        sim = Simulator()
        server, client = lossy_rpc_pair(sim, lambda f: True)
        server.register("echo", lambda x: x)

        def scenario():
            yield from client.call("server", "echo", 1)  # no timeout

        proc = sim.process(scenario())
        sim.run(until=10.0)
        assert not proc.triggered  # still waiting, by design

    def test_duplicate_response_after_retry_is_harmless(self):
        """At-least-once: a slow (not lost) response racing a retry."""
        sim = Simulator()
        calls = [0]

        def counting_echo(x):
            calls[0] += 1
            yield sim.timeout(2e-3)  # slower than the client's patience
            return x

        server, client = lossy_rpc_pair(sim, None)
        server.register("echo", counting_echo)

        def scenario():
            result = yield from client.call(
                "server", "echo", 7, timeout=1.5e-3, retries=3
            )
            return result

        assert sim.run_process(scenario()) == 7
        assert calls[0] >= 2  # the handler ran more than once (idempotent)

    def test_clean_network_zero_overhead(self):
        sim = Simulator()
        server, client = lossy_rpc_pair(sim, None)
        server.register("echo", lambda x: x)

        def scenario():
            result = yield from client.call(
                "server", "echo", "fast", timeout=1.0, retries=5
            )
            return result, sim.now

        result, elapsed = sim.run_process(scenario())
        assert result == "fast"
        assert elapsed < 1e-3  # no timeout fired


class TestDeadline:
    def test_deadline_bounds_a_call_with_no_timeout(self):
        """Without a deadline this call would wait forever (see above);
        the deadline turns it into a bounded failure."""
        sim = Simulator()
        server, client = lossy_rpc_pair(sim, lambda f: True)  # black hole
        server.register("echo", lambda x: x)

        def scenario():
            yield from client.call("server", "echo", 1, deadline=5e-3)

        with pytest.raises(RpcError, match="deadline exceeded"):
            sim.run_process(scenario())
        assert sim.now == pytest.approx(5e-3, rel=0.01)
        assert deadline_exceeded(sim) == 1
        assert client.retransmits == 0  # deadline-only calls never resend

    def test_deadline_cuts_retries_short(self):
        sim = Simulator()
        server, client = lossy_rpc_pair(sim, lambda f: True)
        server.register("echo", lambda x: x)

        def scenario():
            yield from client.call(
                "server", "echo", 1, timeout=1e-3, retries=100, deadline=3.5e-3
            )

        with pytest.raises(RpcError, match="deadline exceeded"):
            sim.run_process(scenario())
        assert sim.now == pytest.approx(3.5e-3, rel=0.01)
        assert client.retransmits >= 2  # a few attempts fit the budget

    def test_deadline_does_not_affect_fast_success(self):
        sim = Simulator()
        server, client = lossy_rpc_pair(sim, None)
        server.register("echo", lambda x: x)

        def scenario():
            result = yield from client.call(
                "server", "echo", "ok", timeout=1e-3, retries=2, deadline=50e-3
            )
            return result

        assert sim.run_process(scenario()) == "ok"
        assert deadline_exceeded(sim) == 0


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(base=1e-3, multiplier=2.0, max_interval=4e-3,
                             jitter=0.0)
        rng = policy.rng_for(0)
        intervals = [policy.interval(n, rng) for n in range(5)]
        assert intervals == [1e-3, 2e-3, 4e-3, 4e-3, 4e-3]

    def test_jitter_is_bounded_and_reproducible(self):
        policy = RetryPolicy(base=1e-3, jitter=0.25, seed=11)
        rng_a, rng_b = policy.rng_for(42), policy.rng_for(42)
        a = [policy.interval(0, rng_a) for _ in range(8)]
        b = [policy.interval(0, rng_b) for _ in range(8)]
        assert a == b  # same (seed, rpc id) -> same schedule
        assert len(set(a)) > 1  # but genuinely jittered
        assert all(0.75e-3 <= x <= 1.25e-3 for x in a)

    def test_invalid_policies_rejected(self):
        with pytest.raises(Exception):
            RetryPolicy(base=0)
        with pytest.raises(Exception):
            RetryPolicy(jitter=1.5)

    def test_backoff_recovers_lost_request(self):
        sim = Simulator()
        drops = [True, True, False]  # two lost, third delivered

        def loss(frame):
            return drops.pop(0) if drops else False

        server, client = lossy_rpc_pair(sim, loss)
        server.register("echo", lambda x: x)
        policy = RetryPolicy(base=1e-3, jitter=0.1, seed=3)

        def scenario():
            result = yield from client.call(
                "server", "echo", 9, retries=5, policy=policy
            )
            return result, sim.now

        result, elapsed = sim.run_process(scenario())
        assert result == 9
        # Two backoff waits were paid: ~base + ~2*base, jittered.
        assert elapsed > 2.5e-3


class TestRetryBudget:
    def test_budget_caps_spends_per_window(self):
        sim = Simulator()
        budget = RetryBudget(sim, budget=2, window=10e-3,
                             metrics=sim.telemetry.scope("budget"))
        assert budget.try_spend()
        assert budget.try_spend()
        assert not budget.try_spend()  # spent, clock unchanged
        assert budget.granted == 2
        assert sim.telemetry.get("budget.exhausted").value == 1

    def test_window_expiry_restores_grants(self):
        sim = Simulator()
        budget = RetryBudget(sim, budget=1, window=5e-3)
        assert budget.try_spend()
        assert not budget.try_spend()

        def wait():
            yield sim.timeout(6e-3)

        sim.run_process(wait())
        assert budget.try_spend()  # the old spend aged out...
        assert not budget.try_spend()  # ...and only it

    def test_exhausted_budget_fails_the_call_fast(self):
        """With the budget spent, a timed-out call raises instead of
        retransmitting into the outage."""
        sim = Simulator()
        budget = RetryBudget(sim, budget=2, window=1.0)
        server, client = lossy_rpc_pair(sim, lambda f: True, budget)
        server.register("echo", lambda x: x)

        def scenario():
            yield from client.call(
                "server", "echo", 1, timeout=1e-3, retries=10
            )

        with pytest.raises(RpcError, match="retry budget exhausted"):
            sim.run_process(scenario())
        # Two retransmissions were granted, the third attempt failed fast.
        assert client.retransmits == 2
        assert client.retry_budget_exhausted == 1
        assert sim.now < 5e-3  # nowhere near 11 timeouts' worth of waiting

    def test_budget_is_shared_across_concurrent_calls(self):
        sim = Simulator()
        budget = RetryBudget(sim, budget=3, window=1.0)
        server, client = lossy_rpc_pair(sim, lambda f: True, budget)
        server.register("echo", lambda x: x)
        errors = []

        def one(index):
            try:
                yield from client.call(
                    "server", "echo", index, timeout=1e-3, retries=5
                )
            except RpcError as error:
                errors.append(str(error))

        def scenario():
            procs = [sim.process(one(i)) for i in range(4)]
            yield sim.all_of(procs)

        sim.run_process(scenario())
        # Every call failed, but only 3 retransmissions total were sent —
        # not 4 calls x 5 retries of outage amplification.
        assert len(errors) == 4
        assert client.retransmits == 3
        assert sum("retry budget exhausted" in e for e in errors) >= 3

    def test_invalid_budgets_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            RetryBudget(sim, budget=0, window=1.0)
        with pytest.raises(ConfigurationError):
            RetryBudget(sim, budget=1, window=0.0)
