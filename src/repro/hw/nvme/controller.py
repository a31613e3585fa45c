"""The NVMe controller: queue pairs, command execution, flash timing.

Hyperion instantiates an "NVMe Host IP Core" on the FPGA (Figure 2): the
FPGA is the NVMe *host* and the SSDs are ordinary endpoints. This class
models one SSD's controller; the DPU submits commands into its queues over
the bifurcated PCIe links.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Generator, List, Optional, Union

from repro.common.errors import CapacityError, FaultInjectedError, ProtocolError
from repro.faults import FaultInjector, FaultKind
from repro.hw.nvme.commands import NvmeCommand, NvmeCompletion, NvmeOpcode, NvmeStatus
from repro.hw.nvme.flash import FlashArray
from repro.hw.nvme.namespace import LBA_SIZE, Namespace
from repro.hw.nvme.zns import ZonedNamespace
from repro.hw.pcie.device import Bar, PcieDevice
from repro.hw.pcie.link import PcieLink
from repro.overload.queues import BoundedQueue, QueuePolicy
from repro.sim import Event, Simulator, Store
from repro.telemetry import MetricScope

#: Firmware command decode + completion posting overhead.
CONTROLLER_LATENCY = 2e-6

#: Firmware watchdog: how long a command injected with COMMAND_TIMEOUT
#: stalls before being aborted with COMMAND_ABORTED status.
COMMAND_WATCHDOG_LATENCY = 10e-3

AnyNamespace = Union[Namespace, ZonedNamespace]


class NvmeQueuePair:
    """One submission/completion queue pair with bounded depth.

    The default mode (``policy=None``) keeps the blocking
    :class:`~repro.sim.Store` submission path: a full queue stalls the
    submitter — an *implicit unbounded queue* of blocked putter state.
    Once the controller runs, a submission starts its command at once
    (commands overlap across dies); the store only holds what was
    submitted before :meth:`NvmeController.start`.
    With a :class:`~repro.overload.QueuePolicy`, submission goes through
    a :class:`~repro.overload.BoundedQueue` instead: a full queue
    completes the command immediately with ``QUEUE_FULL`` (the host sees
    backpressure, not a stall), and the CoDel policy aborts commands
    whose queueing delay went stale before execution.
    """

    def __init__(
        self,
        sim: Simulator,
        qid: int,
        depth: int = 256,
        policy: Optional[QueuePolicy] = None,
        metrics: Optional[MetricScope] = None,
        codel_target: float = 200e-6,
        codel_interval: float = 1e-3,
    ):
        self.sim = sim
        self.qid = qid
        self.depth = depth
        self.policy = policy
        self.sq: Optional[Store] = None
        self.queue: Optional[BoundedQueue] = None
        if policy is None:
            self.sq = Store(sim, capacity=depth)
        else:
            if metrics is None:
                metrics = MetricScope.standalone(f"nvme.qp{qid}")
            self.queue = BoundedQueue(
                sim, metrics, depth, policy=policy,
                codel_target=codel_target, codel_interval=codel_interval,
                on_drop=self._on_drop,
            )
        self._waiters: Dict[int, Event] = {}
        #: The started controller's command execution, on a ``Store``-mode
        #: pair: a submission starts it directly.
        self._execute: Optional[Callable[[NvmeCommand], Generator]] = None

    def submit(self, command: NvmeCommand) -> Event:
        """Queue a command; the returned event fires with its completion."""
        done = Event(self.sim)
        self._waiters[command.cid] = done
        if self._execute is not None:
            self.sim.spawn(self._execute(command))
        elif self.queue is not None:
            # try_put completes the command with QUEUE_FULL via _on_drop
            # when at capacity — the submitter never blocks.
            self.queue.try_put(command)
        elif len(self.sq) < self.depth:
            self.sq.put_nowait(command)
        else:
            # A full submission queue stalls the submission, not the
            # submitter: a process waits for the slot on its behalf.
            self.sim.spawn(self._enqueue(command))
        return done

    def _enqueue(self, command: NvmeCommand):
        yield self.sq.put(command)

    def _on_drop(self, command: NvmeCommand, reason: str) -> None:
        status = (
            NvmeStatus.QUEUE_FULL if reason == "full"
            else NvmeStatus.COMMAND_ABORTED
        )
        self.complete(NvmeCompletion(command.cid, status))

    def next_command(self) -> Event:
        """Event firing with the next submitted command (either mode)."""
        if self.queue is not None:
            return self.queue.get()
        return self.sq.get()

    def complete(self, completion: NvmeCompletion) -> None:
        """Post *completion*; the submitter resumes in an entry of its own."""
        self._waiter(completion).succeed(completion)

    def post(self, completion: NvmeCompletion) -> None:
        """Post *completion* as the last act of the command's own
        process: the submitter resumes inside this entry."""
        self._waiter(completion).wake(completion)

    def _waiter(self, completion: NvmeCompletion) -> Event:
        waiter = self._waiters.pop(completion.cid, None)
        if waiter is None:
            raise ProtocolError(f"completion for unknown cid {completion.cid}")
        return waiter


class NvmeController(PcieDevice):
    """One SSD: controller firmware + flash array + namespaces."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        namespaces: Optional[Dict[int, AnyNamespace]] = None,
        flash: Optional[FlashArray] = None,
        link: Optional[PcieLink] = None,
        queue_depth: int = 256,
        injector: Optional[FaultInjector] = None,
        queue_policy: Optional[QueuePolicy] = None,
    ):
        super().__init__(name, bars=[Bar(16 * 1024)])
        self.sim = sim
        self.namespaces: Dict[int, AnyNamespace] = namespaces or {}
        self.flash = flash if flash is not None else FlashArray(
            sim, injector=injector, component=f"{name}.flash"
        )
        self.link = link
        self.queue_pairs: List[NvmeQueuePair] = []
        self._queue_depth = queue_depth
        self._queue_policy = queue_policy
        self.injector = injector
        self._metrics = sim.telemetry.unique_scope(name)
        self._commands_executed = self._metrics.counter("commands_executed")
        self._commands_aborted = self._metrics.counter("commands_aborted")
        self._media_errors = self._metrics.counter("media_errors")
        self._cmd_latency = self._metrics.histogram("cmd_latency")
        self._started = False

    def attach_faults(self, injector: FaultInjector) -> "NvmeController":
        """Bind the controller (and its flash) to a fault injector.

        The controller consults component id ``<name>`` for COMMAND_TIMEOUT
        faults; the flash array consults ``<name>.flash`` for READ_ERROR
        and DIE_STUCK faults.
        """
        self.injector = injector
        self.flash.attach_faults(injector, f"{self.name}.flash")
        return self

    # -- counter views -----------------------------------------------------
    @property
    def commands_executed(self) -> int:
        return self._commands_executed.value

    @property
    def commands_aborted(self) -> int:
        return self._commands_aborted.value

    @property
    def media_errors(self) -> int:
        return self._media_errors.value

    def add_namespace(self, namespace: AnyNamespace) -> None:
        self.namespaces[namespace.namespace_id] = namespace

    def create_queue_pair(self) -> NvmeQueuePair:
        qid = len(self.queue_pairs)
        metrics = (
            self._metrics.scope(f"qp{qid}")
            if self._queue_policy is not None else None
        )
        qp = NvmeQueuePair(
            self.sim, qid=qid, depth=self._queue_depth,
            policy=self._queue_policy, metrics=metrics,
        )
        self.queue_pairs.append(qp)
        if self._started:
            self._serve(qp)
        return qp

    def start(self) -> None:
        """Begin draining all queue pairs (call once after setup)."""
        if self._started:
            return
        self._started = True
        for qp in self.queue_pairs:
            self._serve(qp)

    def _serve(self, qp: NvmeQueuePair) -> None:
        """Execute *qp*'s commands from now on. NVMe runs them in
        parallel across flash dies: each is a process of its own, started
        without waiting for the ones before it."""
        if qp.queue is not None:
            self.sim.spawn(self._queue_loop(qp))
            return
        qp._execute = partial(self._execute, qp)
        while len(qp.sq):  # submitted before start(), in order
            self.sim.spawn(self._execute(qp, qp.sq.get().value))

    def _queue_loop(self, qp: NvmeQueuePair):
        """A policy-mode pair's dispatcher: its queue decides what runs."""
        while True:
            command = yield qp.next_command()
            self.sim.spawn(self._execute(qp, command))

    # -- command execution ---------------------------------------------------
    def _execute(self, qp: NvmeQueuePair, command: NvmeCommand):
        """Process: one command; posting its completion is its last act."""
        started = self.sim.now
        with self.sim.tracer.span(
            "nvme.cmd", "nvme",
            device=self.name, opcode=command.opcode.name, lba=command.lba,
        ) as span:
            yield self.sim.timeout(CONTROLLER_LATENCY)
            if self.injector is not None and self.injector.fires(
                self.name, FaultKind.COMMAND_TIMEOUT
            ):
                # Firmware hang: the watchdog eventually aborts the command
                # and posts an error completion instead of silently losing it.
                yield self.sim.timeout(COMMAND_WATCHDOG_LATENCY)
                self._commands_aborted.inc()
                self._cmd_latency.observe(self.sim.now - started)
                span.annotate(status="COMMAND_ABORTED")
                completion = NvmeCompletion(
                    command.cid, NvmeStatus.COMMAND_ABORTED
                )
            elif command.namespace_id not in self.namespaces:
                completion = NvmeCompletion(
                    command.cid, NvmeStatus.LBA_OUT_OF_RANGE
                )
            else:
                namespace = self.namespaces[command.namespace_id]
                try:
                    if command.opcode is NvmeOpcode.READ:
                        completion = yield from self._do_read(namespace, command)
                    elif command.opcode is NvmeOpcode.WRITE:
                        completion = yield from self._do_write(namespace, command)
                    elif command.opcode is NvmeOpcode.FLUSH:
                        completion = NvmeCompletion(
                            command.cid, NvmeStatus.SUCCESS
                        )
                    elif command.opcode is NvmeOpcode.ZONE_APPEND:
                        completion = yield from self._do_append(
                            namespace, command
                        )
                    elif command.opcode is NvmeOpcode.ZONE_RESET:
                        completion = yield from self._do_reset(
                            namespace, command
                        )
                    else:
                        completion = NvmeCompletion(
                            command.cid, NvmeStatus.INVALID_OPCODE
                        )
                except FaultInjectedError:
                    self._media_errors.inc()
                    completion = NvmeCompletion(
                        command.cid, NvmeStatus.UNRECOVERED_READ_ERROR
                    )
                except (CapacityError, ProtocolError):
                    completion = NvmeCompletion(
                        command.cid, NvmeStatus.LBA_OUT_OF_RANGE
                    )
                self._commands_executed.inc()
                self._cmd_latency.observe(self.sim.now - started)
                span.annotate(status=completion.status.name)
        qp.post(completion)

    def _dma(self, size_bytes: int):
        if self.link is not None:
            yield from self.link.transfer(size_bytes)

    def _stripe(self, page_op, lba: int, count: int):
        """Process: *page_op* on *count* pages from *lba*. The FTL
        stripes a multi-page command across dies in parallel; one page
        has nothing to run beside and stays in this process."""
        if count == 1:
            yield from page_op(lba)
            return
        yield self.sim.all_of([
            self.sim.process(page_op(lba + i)) for i in range(count)
        ])

    def _do_read(self, namespace: AnyNamespace, command: NvmeCommand):
        yield from self._stripe(
            self.flash.read_page, command.lba, command.block_count
        )
        try:
            data = namespace.read_blocks(command.lba, command.block_count)
        except ProtocolError:
            return NvmeCompletion(command.cid, NvmeStatus.ZONE_INVALID_WRITE)
        yield from self._dma(len(data))
        return NvmeCompletion(command.cid, NvmeStatus.SUCCESS, data=data)

    def _do_write(self, namespace: AnyNamespace, command: NvmeCommand):
        payload = command.data if command.data is not None else b""
        yield from self._dma(max(len(payload), command.block_count * LBA_SIZE))
        if isinstance(namespace, ZonedNamespace):
            try:
                namespace.write(command.lba, payload)
            except ProtocolError:
                return NvmeCompletion(command.cid, NvmeStatus.ZONE_INVALID_WRITE)
        else:
            namespace.write_blocks(command.lba, payload)
        count = max(1, (len(payload) + LBA_SIZE - 1) // LBA_SIZE)
        yield from self._stripe(self.flash.program_page, command.lba, count)
        return NvmeCompletion(command.cid, NvmeStatus.SUCCESS)

    def _do_append(self, namespace: AnyNamespace, command: NvmeCommand):
        if not isinstance(namespace, ZonedNamespace):
            return NvmeCompletion(command.cid, NvmeStatus.INVALID_OPCODE)
        payload = command.data if command.data is not None else b""
        yield from self._dma(len(payload))
        try:
            # command.lba names the zone by its start LBA for appends.
            zone = namespace.zone_for_lba(command.lba)
            lba = namespace.append(zone.index, payload)
        except ProtocolError:
            return NvmeCompletion(command.cid, NvmeStatus.ZONE_FULL)
        count = max(1, (len(payload) + LBA_SIZE - 1) // LBA_SIZE)
        for i in range(count):
            yield from self.flash.program_page(lba + i)
        return NvmeCompletion(command.cid, NvmeStatus.SUCCESS, result_lba=lba)

    def _do_reset(self, namespace: AnyNamespace, command: NvmeCommand):
        if not isinstance(namespace, ZonedNamespace):
            return NvmeCompletion(command.cid, NvmeStatus.INVALID_OPCODE)
        zone = namespace.zone_for_lba(command.lba)
        yield from self.flash.erase_block(zone.start_lba)
        namespace.reset_zone(zone.index)
        return NvmeCompletion(command.cid, NvmeStatus.SUCCESS)
