"""The open-loop arrival process as a chain of timeouts: the oracle of
:meth:`repro.workload.generator.OpenLoopTraffic._arrivals`.

Every arrival candidate used to be an engine entry: a tenant's process
slept ``expovariate(peak)`` on a timeout of its own, then kept or
thinned the candidate against the curve at the instant it woke. The
generator now folds the gaps of thinned candidates onto one running
instant and sleeps once per kept arrival (and once on the first
candidate past the horizon). :class:`ChainedOpenLoopTraffic` keeps the
chain, so ``tests/test_workload.py`` can check that both draw the same
numbers in the same order and keep the same arrivals at the same
floats. Nothing in the package imports this module.
"""

import random

from repro.workload.generator import OpenLoopTraffic, _draw_op


class ChainedOpenLoopTraffic(OpenLoopTraffic):
    """:class:`OpenLoopTraffic` with one timeout per arrival candidate."""

    def _arrivals(self, tenant):
        rng = random.Random(f"{self.seed}/arrivals/{tenant.name}")
        oprng = random.Random(f"{self.seed}/ops/{tenant.name}")
        peak = tenant.curve.peak_rate
        while True:
            yield self.sim.timeout(rng.expovariate(peak))
            if self.sim.now >= self.horizon:
                return
            t = self.sim.now - self.origin
            if rng.random() * peak > tenant.curve.rate(t):
                continue  # thinned: below the instantaneous rate
            kind, keys = _draw_op(self.zipf, tenant, oprng)
            self._offered.inc()
            self.sim.spawn(self._op(tenant, kind, keys))
