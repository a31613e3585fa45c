"""Tests for weighted AXIS arbitration (tenant isolation, paper §4(4))."""

import pytest

from repro.common.errors import ConfigurationError
from repro.hw.fpga.arbiter import WeightedAxisArbiter
from repro.sim import Simulator


def make_arbiter(sim, bandwidth=1e9):
    """An arbiter over a bus of *bandwidth* bytes/s (lowered from
    :data:`~repro.hw.fpga.arbiter.AXIS_BANDWIDTH`)."""
    arbiter = WeightedAxisArbiter(sim)
    arbiter.bandwidth = bandwidth
    return arbiter


class TestBasics:
    def test_single_tenant_full_bandwidth(self):
        sim = Simulator()
        arbiter = make_arbiter(sim, bandwidth=1e9)
        arbiter.register_tenant("a")

        def scenario():
            yield from arbiter.transfer("a", 1_000_000)
            return sim.now

        # 1 MB at 1 GB/s = 1 ms.
        assert sim.run_process(scenario()) == pytest.approx(1e-3)

    def test_unknown_tenant(self):
        sim = Simulator()
        arbiter = make_arbiter(sim)
        with pytest.raises(ConfigurationError):
            sim.run_process(arbiter.transfer("ghost", 100))

    def test_duplicate_registration(self):
        arbiter = make_arbiter(Simulator())
        arbiter.register_tenant("a")
        with pytest.raises(ConfigurationError):
            arbiter.register_tenant("a")

    def test_bad_weight(self):
        with pytest.raises(ConfigurationError):
            make_arbiter(Simulator()).register_tenant("a", weight=0)

    def test_sequential_transfers(self):
        sim = Simulator()
        arbiter = make_arbiter(sim)
        arbiter.register_tenant("a")

        def scenario():
            yield from arbiter.transfer("a", 1000)
            yield from arbiter.transfer("a", 1000)
            return sim.now

        assert sim.run_process(scenario()) == pytest.approx(2000 / 1e9)


class TestIsolation:
    def test_equal_weights_equal_shares(self):
        sim = Simulator()
        arbiter = make_arbiter(sim)
        arbiter.register_tenant("a", weight=1)
        arbiter.register_tenant("b", weight=1)
        size = 1_000_000

        sim.process(arbiter.transfer("a", size))
        sim.process(arbiter.transfer("b", size))
        sim.run()
        assert arbiter.share_of("a") == pytest.approx(0.5, abs=0.05)

    def test_weights_enforce_shares(self):
        """A 3:1 weighting yields ~3:1 bytes served under saturation."""
        sim = Simulator()
        arbiter = make_arbiter(sim)
        arbiter.register_tenant("premium", weight=3)
        arbiter.register_tenant("basic", weight=1)
        finish = {}

        def tenant(name, size):
            yield from arbiter.transfer(name, size)
            finish[name] = sim.now

        sim.process(tenant("premium", 3_000_000))
        sim.process(tenant("basic", 1_000_000))
        sim.run()
        # Equal proportional demand: both finish together (fair by weight).
        assert finish["premium"] == pytest.approx(finish["basic"], rel=0.05)

    def test_victim_latency_bounded_under_attack(self):
        """A bursty neighbour cannot starve a weighted tenant — the
        microarchitectural-isolation question of paper §4(4)."""
        def victim_latency(with_attacker):
            sim = Simulator()
            arbiter = make_arbiter(sim)
            arbiter.register_tenant("victim", weight=1)
            arbiter.register_tenant("attacker", weight=1)
            if with_attacker:
                # The attacker floods the interconnect.
                for _ in range(10):
                    sim.process(arbiter.transfer("attacker", 10_000_000))
            done = {}

            def victim():
                yield sim.timeout(1e-6)
                start = sim.now
                yield from arbiter.transfer("victim", 100_000)
                done["latency"] = sim.now - start

            sim.process(victim())
            sim.run()
            return done["latency"]

        alone = victim_latency(False)
        contended = victim_latency(True)
        # With a 50% guaranteed share, the slowdown is bounded near 2x
        # (plus one quantum of head-of-line blocking), not unbounded.
        assert contended < alone * 2.6

    def test_idle_tenant_capacity_reused(self):
        """Work-conserving: when B is idle, A gets the whole bus."""
        sim = Simulator()
        arbiter = make_arbiter(sim, bandwidth=1e9)
        arbiter.register_tenant("a", weight=1)
        arbiter.register_tenant("b", weight=1)

        def scenario():
            yield from arbiter.transfer("a", 1_000_000)
            return sim.now

        assert sim.run_process(scenario()) == pytest.approx(1e-3, rel=0.01)
