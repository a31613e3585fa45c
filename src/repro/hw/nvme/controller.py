"""The NVMe controller: queue pairs, command execution, flash timing.

Hyperion instantiates an "NVMe Host IP Core" on the FPGA (Figure 2): the
FPGA is the NVMe *host* and the SSDs are ordinary endpoints. This class
models one SSD's controller; the DPU submits commands into its queues over
the bifurcated PCIe links.
"""

from __future__ import annotations

import itertools
from typing import Dict, Optional

from repro.common.errors import CapacityError, FaultInjectedError, ProtocolError
from repro.faults import FaultInjector, FaultKind
from repro.hw.nvme.commands import NvmeCommand, NvmeCompletion, NvmeOpcode, NvmeStatus
from repro.hw.nvme.flash import FlashArray
from repro.hw.nvme.namespace import LBA_SIZE, Namespace
from repro.hw.pcie.device import Bar, PcieDevice
from repro.hw.pcie.link import PcieLink
from repro.sim import Event, Simulator

#: Firmware command decode + completion posting overhead.
CONTROLLER_LATENCY = 2e-6

#: Firmware watchdog: how long a command injected with COMMAND_TIMEOUT
#: stalls before being aborted with COMMAND_ABORTED status.
COMMAND_WATCHDOG_LATENCY = 10e-3


class NvmeQueuePair:
    """One submission/completion queue pair of a controller: a
    submission starts its command at once, as a process of its own
    (commands overlap across dies)."""

    def __init__(self, controller: "NvmeController"):
        self.sim = controller.sim
        self._controller = controller
        self._waiters: Dict[int, Event] = {}
        self._cids = itertools.count()

    def submit(self, command: NvmeCommand) -> Event:
        """Start *command*; the returned event fires with its completion."""
        done = Event(self.sim)
        command.cid = cid = next(self._cids)
        self._waiters[cid] = done
        self.sim.spawn(self._controller._execute(self, command))
        return done

    def post(self, completion: NvmeCompletion) -> None:
        """Post *completion* as the last act of the command's own
        process: the submitter resumes inside this entry."""
        waiter = self._waiters.pop(completion.cid, None)
        if waiter is None:
            raise ProtocolError(f"completion for unknown cid {completion.cid}")
        waiter.wake(completion)


class NvmeController(PcieDevice):
    """One SSD: controller firmware + flash array + namespaces."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        flash: Optional[FlashArray] = None,
        link: Optional[PcieLink] = None,
    ):
        super().__init__(name, bars=[Bar(16 * 1024)])
        self.sim = sim
        self._tracer = sim.tracer
        self.namespaces: Dict[int, Namespace] = {}
        self.flash = flash if flash is not None else FlashArray(
            sim, component=f"{name}.flash"
        )
        self.link = link
        self.injector: Optional[FaultInjector] = None
        self._metrics = sim.telemetry.unique_scope(name)
        self._commands_executed = self._metrics.counter("commands_executed")
        self._commands_aborted = self._metrics.counter("commands_aborted")
        self._media_errors = self._metrics.counter("media_errors")
        self._cmd_latency = self._metrics.histogram("cmd_latency")

    def attach_faults(self, injector: FaultInjector) -> "NvmeController":
        """Bind the controller (and its flash) to a fault injector.

        The controller consults component id ``<name>`` for COMMAND_TIMEOUT
        faults; the flash array consults ``<name>.flash`` for READ_ERROR
        and DIE_STUCK faults.
        """
        self.injector = injector
        self.flash.attach_faults(injector, f"{self.name}.flash")
        return self

    def add_namespace(self, namespace: Namespace) -> None:
        self.namespaces[namespace.namespace_id] = namespace

    def create_queue_pair(self) -> NvmeQueuePair:
        return NvmeQueuePair(self)

    # -- command execution ---------------------------------------------------
    def _execute(self, qp: NvmeQueuePair, command: NvmeCommand):
        """Process: one command; posting its completion is its last act."""
        started = self.sim.now
        span = (self._tracer.span("nvme.cmd", "nvme", device=self.name,
                                  opcode=command.opcode.name, lba=command.lba)
                if self._tracer.enabled else None)
        try:
            yield self.sim.timeout(CONTROLLER_LATENCY)
            if self.injector is not None and self.injector.fires(
                self.name, FaultKind.COMMAND_TIMEOUT
            ):
                # Firmware hang: the watchdog eventually aborts the command
                # and posts an error completion instead of silently losing it.
                yield self.sim.timeout(COMMAND_WATCHDOG_LATENCY)
                self._commands_aborted.value += 1
                self._cmd_latency.observe(self.sim.now - started)
                if span is not None:
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
                    else:  # FLUSH
                        completion = NvmeCompletion(
                            command.cid, NvmeStatus.SUCCESS
                        )
                except FaultInjectedError:
                    self._media_errors.value += 1
                    completion = NvmeCompletion(
                        command.cid, NvmeStatus.UNRECOVERED_READ_ERROR
                    )
                except CapacityError:
                    completion = NvmeCompletion(
                        command.cid, NvmeStatus.LBA_OUT_OF_RANGE
                    )
                self._commands_executed.value += 1
                self._cmd_latency.observe(self.sim.now - started)
                if span is not None:
                    span.annotate(status=completion.status.name)
        finally:
            if span is not None:
                span.finish()
        qp.post(completion)

    def _stripe(self, page_op, lba: int, count: int):
        """Process: *page_op* on *count* pages from *lba*, striped by the
        FTL across dies in parallel. One page has nothing to run beside:
        the callers run *page_op* in the command's process instead."""
        yield self.sim.all_of([
            self.sim.process(page_op(lba + i)) for i in range(count)
        ])

    def _do_read(self, namespace: Namespace, command: NvmeCommand):
        if command.block_count == 1:
            yield from self.flash.read_page(command.lba)
        else:
            yield from self._stripe(
                self.flash.read_page, command.lba, command.block_count)
        data = namespace.read_blocks(command.lba, command.block_count)
        if self.link is not None:
            yield from self.link.transfer(len(data))
        return NvmeCompletion(command.cid, NvmeStatus.SUCCESS, data=data)

    def _do_write(self, namespace: Namespace, command: NvmeCommand):
        payload = command.data if command.data is not None else b""
        if self.link is not None:
            yield from self.link.transfer(
                max(len(payload), command.block_count * LBA_SIZE))
        count = namespace.write_blocks(command.lba, payload)
        if count == 1:
            yield from self.flash.program_page(command.lba)
        else:
            yield from self._stripe(self.flash.program_page, command.lba,
                                    count)
        return NvmeCompletion(command.cid, NvmeStatus.SUCCESS)
