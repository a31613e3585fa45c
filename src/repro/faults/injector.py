"""The runtime half of the fault subsystem.

Substrates never schedule faults themselves; they *consult* the injector at
the points where real hardware would fail — a link about to deliver a
frame, a flash die about to return a page, an ICAP scrubber polling for
SEUs — and the injector answers against the plan and the simulated clock.

Determinism: every probabilistic spec draws from its own RNG seeded with
``(plan.seed, spec.name)``, so adding or reordering unrelated specs never
perturbs another spec's draws, and the fired-fault log is byte-identical
across runs of the same (plan, workload).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from repro.faults.plan import FaultKind, FaultPlan, FaultSpec

#: How often :func:`node_outage_controller` consults the plan.
OUTAGE_POLL = 0.5e-3


@dataclass(frozen=True)
class FaultRecord:
    """One fired (or first-observed-active) fault, for the schedule log."""

    time: float
    name: str
    component: str
    kind: FaultKind

    def line(self) -> str:
        return f"{self.time:.9f} {self.name} {self.component} {self.kind.value}"


class FaultInjector:
    """Evaluates a :class:`FaultPlan` against a clock, recording every fire."""

    def __init__(self, clock, plan: FaultPlan):
        self.clock = clock
        self._recorder = getattr(clock, "recorder", None)
        self.plan = plan
        self.log: List[FaultRecord] = []
        self.injected: Dict[FaultKind, int] = {}
        self._fires: Dict[str, int] = {spec.name: 0 for spec in plan.specs}
        self._rngs: Dict[str, random.Random] = {
            spec.name: random.Random(f"{plan.seed}/{spec.name}")
            for spec in plan.specs
        }

    # -- internals -----------------------------------------------------------
    def _record(self, spec: FaultSpec) -> None:
        self._fires[spec.name] += 1
        self.injected[spec.kind] = self.injected.get(spec.kind, 0) + 1
        record = FaultRecord(
            self.clock.now, spec.name, spec.component, spec.kind
        )
        self.log.append(record)
        if self._recorder is not None:
            self._recorder.record("fault", record.line())

    def _exhausted(self, spec: FaultSpec) -> bool:
        if spec.at is not None:
            return self._fires[spec.name] > 0
        if spec.max_fires is not None and self._fires[spec.name] >= spec.max_fires:
            return True
        if spec.window is not None:
            return self.clock.now >= spec.window[1]
        return False

    # -- the consult API -----------------------------------------------------
    def fires(self, component: str, kind: FaultKind) -> bool:
        """Does a fault of ``kind`` fire on ``component`` right now?

        Point-in-time faults only (fire-once and probabilistic specs);
        windowed availability faults are queried with :meth:`active`.
        """
        now = self.clock.now
        fired = False
        for spec in self.plan.specs_for(component, kind):
            if self._exhausted(spec):
                continue
            if spec.at is not None:
                if now >= spec.at:
                    self._record(spec)
                    fired = True
            elif spec.probability is not None:
                if spec.window is not None and not (
                    spec.window[0] <= now < spec.window[1]
                ):
                    continue
                if self._rngs[spec.name].random() < spec.probability:
                    self._record(spec)
                    fired = True
        return fired

    def active(self, component: str, kind: FaultKind) -> bool:
        """Is a windowed fault of ``kind`` currently holding ``component``
        down? The first consult inside each window logs one record (the
        falling edge), keeping the schedule log deterministic and compact."""
        now = self.clock.now
        holding = False
        for spec in self.plan.specs_for(component, kind):
            if spec.is_windowed and spec.window[0] <= now < spec.window[1]:
                if self._fires[spec.name] == 0:
                    self._record(spec)
                    if self._recorder is not None:
                        # A fault window just opened: capture the state of
                        # the system as it enters the incident.
                        self._recorder.dump(f"fault-window:{spec.name}")
                holding = True
        return holding

    def pending(self, component: Optional[str] = None,
                kind: Optional[FaultKind] = None) -> bool:
        """Could any matching spec still fire (or re-enter a window)?

        Monitor processes poll this to know when to stop, so a finished
        plan never keeps the simulation heap alive forever. Unbounded
        probabilistic specs (no window, no ``max_fires``) are pending
        forever — bound them when a monitor watches them.
        """
        for spec in self.plan.specs:
            if component is not None and spec.component != component:
                continue
            if kind is not None and spec.kind is not kind:
                continue
            if not self._exhausted(spec):
                return True
        return False

    # -- the schedule log ----------------------------------------------------
    def fired(self, name: str) -> int:
        """How many times the named spec has fired so far."""
        return self._fires[name]

    def schedule_bytes(self) -> bytes:
        """The fired-fault schedule in canonical bytes.

        Two runs of the same plan and workload must produce identical
        output — the reproducibility contract the chaos experiment (E13)
        asserts.
        """
        return "\n".join(record.line() for record in self.log).encode()


def node_outage_controller(sim, injector: FaultInjector, switch,
                           addresses: List[str], down: Set[str],
                           stopped: Callable[[], bool]):
    """Process: map node outages in the plan onto switch blackholes.

    Every :data:`OUTAGE_POLL` seconds, for each of *addresses* in order
    (the list is re-read each poll, so a cluster may grow): a NODE_DOWN
    window, or a POWER_LOSS spec once it has fired, blackholes the
    address at *switch* — a pulled cable is dead links — and the end of
    the window restores it. *down* is the caller's set of currently
    blackholed addresses; the loop ends once ``stopped()`` is true.
    """
    powered_off: Set[str] = set()
    while True:
        yield sim.timeout(OUTAGE_POLL)
        if stopped():
            return
        for address in list(addresses):
            if (address not in powered_off
                    and injector.pending(address, FaultKind.POWER_LOSS)
                    and injector.fires(address, FaultKind.POWER_LOSS)):
                powered_off.add(address)
            want_down = (
                address in powered_off
                or injector.active(address, FaultKind.NODE_DOWN)
            )
            if want_down and address not in down:
                switch.blackhole(address)
                down.add(address)
            elif not want_down and address in down:
                switch.restore(address)
                down.discard(address)
