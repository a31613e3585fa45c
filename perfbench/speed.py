"""How fast the machine is running right now, for correcting host times.

The sandbox the benchmark runs on shares its cores: for seconds at a
time identical work takes up to 1.7 times longer, and the machine moves
between the two speeds several times a minute. A median over a run
cannot remove that, because a whole run can fall into one slow stretch,
and two sets of runs an hour apart can sit at different levels.

So the worker times a short fixed loop (:class:`SpeedProbe`) next to
every slice of measured work and next to set-up, and reports each host
time multiplied by ``REFERENCE_S / loop time``: the time the work would
have taken on a machine that runs the loop in :data:`REFERENCE_S`, which
is what the uncontended reference sandbox does. The loop is shaped like
the simulator's inner loop (heap, generator resume, dict update), so the
two slow down together; on one run of one workload the correction takes
the spread between runs from 60 % to 12 %. The raw wall time is reported
beside every corrected one.
"""

from __future__ import annotations

import heapq
import time

#: Loop iterations per probe: about 2.4 ms, 3 % of a slice.
ITERATIONS = 4000
#: Seconds the probe takes on the uncontended reference sandbox
#: (2.1 GHz Xeon, CPython 3.11): 0.6 us per iteration.
REFERENCE_S = 0.6e-6 * ITERATIONS


def _process(index: int):
    when = 0.0
    while True:
        when = yield when + 1e-6 * (index % 7 + 1)


class SpeedProbe:
    """A fixed pure-Python loop; calling it returns its wall seconds."""

    def __init__(self):
        self._heap = []
        self._processes = {}
        self._resumes = {}
        for index in range(64):
            process = _process(index)
            self._processes[index] = process
            heapq.heappush(self._heap, (next(process), index))

    def __call__(self) -> float:
        heap, processes, resumes = self._heap, self._processes, self._resumes
        pop, push = heapq.heappop, heapq.heappush
        started = time.perf_counter()
        for _ in range(ITERATIONS):
            when, index = pop(heap)
            resumes[index] = resumes.get(index, 0) + 1
            push(heap, (processes[index].send(when), index))
        return time.perf_counter() - started


def corrected(seconds: float, *probes: float) -> float:
    """*seconds* rescaled to the reference speed, given the probe times
    taken around it."""
    return seconds * REFERENCE_S * len(probes) / sum(probes)
