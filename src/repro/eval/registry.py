"""The one declaration of every experiment.

``python -m repro.eval`` prints ``render(run())`` for each row;
``python -m repro.bench`` publishes ``metrics(run())`` for each row that
has a ``metrics`` and checks ``accept(run())`` — the claims the
default-config report must meet. Both run their rows through
:func:`run_each`, which ``-j N`` spreads over worker processes: same
bytes for every ``N``. Adding an experiment is one module
(``run_*``, ``format_*`` and, when benchmarked, ``metrics`` and ``accept``
next to its report dataclass) plus one row here, and one row each in
EXPERIMENTS.md and DESIGN.md §3 (``tests/test_eval.py`` checks both).
"""

from __future__ import annotations

import inspect
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple,
)

from repro.eval import (
    analytics, autoscale, chaos, compiler, corfu, efficiency, fail2ban,
    figures, georep, kvssd, loadbalancer, overload, p2pdma, pointer_chase,
    predictability, reconfig, recovery, scaleout, table1, telemetry, trace,
    translation, verify,
)
from repro.eval.report import Metric, Table


@dataclass(frozen=True)
class Experiment:
    """One experiment: how to run it, print it and benchmark it."""

    key: str
    #: Heading of the ``repro.eval`` report.
    title: str
    #: Title in ``BENCH_<n>.json``; None when the row is not benchmarked.
    bench_title: Optional[str]
    run: Callable[..., Any]
    render: Callable[[Any], str]
    #: Headline numbers of a default-config report; None: not benchmarked.
    metrics: Optional[Callable[[Any], Dict[str, Metric]]] = None
    #: The claims a default-config report violates, as sentences (none:
    #: the paper's shape holds); ``repro.bench --check`` gates on them.
    accept: Optional[Callable[[Any], List[str]]] = None

    @property
    def seeded(self) -> bool:
        """Whether ``run`` takes ``seed=``, so ``--seed`` reaches it."""
        return "seed" in inspect.signature(self.run).parameters

    def execute(self, seed: Optional[int] = None) -> Any:
        """Run and return the report; *seed* reaches seeded runs only."""
        if self.seeded and seed is not None:
            return self.run(seed=seed)
        return self.run()


EXPERIMENTS: Tuple[Experiment, ...] = (
    Experiment("t1", "Table 1: state-of-the-art matrix", None,
               table1.run_table1, Table.render),
    Experiment("f12", "Figures 1+2: BOM and schematic", None,
               figures.run_figures, figures.format_figures),
    Experiment("e1", "E1: volume + energy efficiency",
               "volume + energy efficiency",
               efficiency.run_efficiency, efficiency.format_efficiency,
               efficiency.metrics, efficiency.accept),
    Experiment("e2", "E2: pointer chasing", "pointer chasing",
               pointer_chase.run_pointer_chase,
               pointer_chase.format_pointer_chase,
               pointer_chase.metrics, pointer_chase.accept),
    Experiment("e3", "E3: fail2ban", "fail2ban",
               fail2ban.run_fail2ban, fail2ban.format_fail2ban,
               fail2ban.metrics, fail2ban.accept),
    Experiment("e4", "E4: load balancer overflow", "load balancer overflow",
               loadbalancer.run_loadbalancer, loadbalancer.format_loadbalancer,
               loadbalancer.metrics, loadbalancer.accept),
    Experiment("e5", "E5: segment vs page translation",
               "segment vs page translation",
               translation.run_translation, translation.format_translation,
               translation.metrics, translation.accept),
    Experiment("e6", "E6: predictability + energy", "predictability + energy",
               predictability.run_predictability,
               predictability.format_predictability,
               predictability.metrics, predictability.accept),
    Experiment("e7", "E7: partial reconfiguration", "partial reconfiguration",
               reconfig.run_reconfig, reconfig.format_reconfig,
               reconfig.metrics, reconfig.accept),
    Experiment("e8", "E8: Corfu shared log", "Corfu shared log",
               corfu.run_corfu, corfu.format_corfu, corfu.metrics, corfu.accept),
    Experiment("e9", "E9: Parquet/Arrow end to end",
               "Parquet/Arrow end to end",
               analytics.run_analytics, analytics.format_analytics,
               analytics.metrics, analytics.accept),
    Experiment("e10", "E10: eBPF->HDL compiler corpus",
               "eBPF->HDL compiler corpus",
               compiler.run_compiler, compiler.format_compiler,
               compiler.metrics, compiler.accept),
    Experiment("e11", "E11: persistence + recovery", "persistence + recovery",
               recovery.run_recovery, recovery.format_recovery,
               recovery.metrics, recovery.accept),
    Experiment("e12", "E12: KV-SSD transports", "KV-SSD transports",
               kvssd.run_kvssd, kvssd.format_kvssd, kvssd.metrics, kvssd.accept),
    Experiment("e13", "E13: chaos storm + replicated failover",
               "chaos storm + replicated failover",
               chaos.run_chaos, chaos.format_chaos, chaos.metrics, chaos.accept),
    Experiment("e15",
               "E15: overload — congestion collapse vs graceful brownout",
               "overload: collapse vs graceful brownout",
               overload.run_overload, overload.format_overload,
               overload.metrics, overload.accept),
    Experiment("e16",
               "E16: scale-out data plane — sharding, batching, hot-key cache",
               "scale-out data plane: sharding + batching + cache",
               scaleout.run_scaleout, scaleout.format_scaleout,
               scaleout.metrics, scaleout.accept),
    Experiment("e17",
               "E17: geo-replication — WAN log shipping + region-loss drill",
               "geo-replication: WAN log shipping + region-loss drill",
               georep.run_georep, georep.format_georep,
               georep.metrics, georep.accept),
    Experiment("e19",
               "E19: consistency verification — chaos search, "
               "linearizability, shrinking",
               "consistency verification: chaos search + shrinking",
               verify.run_verify, verify.format_verify,
               verify.metrics, verify.accept),
    Experiment("e20",
               "E20: traffic plane — manual vs SLO-driven capacity under a "
               "daily curve",
               "traffic plane: SLO-driven autoscaling vs static fleets",
               autoscale.run_autoscale, autoscale.format_autoscale,
               autoscale.metrics, autoscale.accept),
    Experiment("p2p", "EXT: NIC->SSD bounce vs P2P DMA vs Hyperion",
               "NIC->SSD bounce vs P2P DMA vs Hyperion",
               p2pdma.run_p2pdma, p2pdma.format_p2pdma,
               p2pdma.metrics, p2pdma.accept),
    Experiment("telemetry",
               "TEL: unified telemetry plane — traced KV get + registry",
               "unified telemetry plane",
               telemetry.run_telemetry, telemetry.format_telemetry,
               telemetry.metrics, telemetry.accept),
    Experiment("trace",
               "TRACE: causal trace analysis — cross-region quorum flows",
               None, trace.run_trace, trace.format_trace),
)


class SelectionError(ValueError):
    """The command line (or a ``keys=`` argument) asks for no such run."""


def select(keys: Sequence[str] = (),
           benchmarked: bool = False) -> List[Experiment]:
    """The rows for *keys* in the order asked; every row when empty.

    With *benchmarked* only rows that carry ``metrics`` exist, so
    ``t1``/``f12``/``trace`` are unknown keys to ``repro.bench``.
    """
    rows = {row.key: row for row in EXPERIMENTS
            if row.metrics is not None or not benchmarked}
    keys = [key.lower() for key in keys] or list(rows)
    unknown = [key for key in keys if key not in rows]
    if unknown:
        raise SelectionError(
            f"unknown experiments: {', '.join(unknown)}\n"
            "use --list to see the available ids"
        )
    return [rows[key] for key in keys]


def run_each(task: Callable[[str, Optional[int]], Any],
             rows: Sequence[Experiment], seed: Optional[int],
             jobs: int = 1) -> Iterator[Any]:
    """``task(row.key, seed)`` for every row, yielded in row order.

    With *jobs* > 1 the calls run in that many worker processes; a row
    is a fresh simulator and a seed, so where it runs cannot show in
    what it returns. *task* is a module-level function returning plain
    data (it crosses a process boundary by import path and by pickle).
    """
    keys = [row.key for row in rows]
    if jobs == 1:
        yield from map(task, keys, repeat(seed))
        return
    # spawn: workers start from a fresh import, whatever the parent did.
    with ProcessPoolExecutor(
        max_workers=jobs, mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        yield from pool.map(task, keys, repeat(seed))


def rendered(key: str, seed: Optional[int]) -> str:
    """The ``repro.eval`` task: run one row, return its printed report."""
    (row,) = select([key])
    return row.render(row.execute(seed))


def positive_int(text: str) -> int:
    """``pop_option`` converter for counts such as ``-j``."""
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def pop_option(args: List[str], flag: str, convert: Callable[[str], Any],
               kind: str) -> Any:
    """Remove ``flag VALUE`` from *args*; ``convert(VALUE)``, or None
    when the flag is absent. *kind* words the complaint ("an integer")."""
    if flag not in args:
        return None
    at = args.index(flag)
    try:
        value = convert(args[at + 1])
    except (IndexError, ValueError):
        raise SelectionError(f"{flag} requires {kind} argument") from None
    del args[at:at + 2]
    return value
