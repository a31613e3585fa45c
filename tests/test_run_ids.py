"""Ids that key protocol state are owned by the component that keys on
them, never by the process: two simulators in one process each issue
id 0 first, so registry rows sharing a worker cannot see each other."""

import pytest

from repro.hw.net import Network
from repro.hw.nvme import Namespace, NvmeCommand, NvmeController, NvmeOpcode
from repro.sim import Simulator
from repro.transport.homa import HomaSocket
from repro.transport.rdma import RdmaNic
from repro.transport.tcp import TcpStack

from tests.capture import arrivals, sending


def first_nvme_cid():
    sim = Simulator()
    controller = NvmeController(sim, "ssd")
    controller.add_namespace(Namespace(1, 64))
    qp = controller.create_queue_pair()
    command = NvmeCommand(NvmeOpcode.READ, lba=0)

    def submit():
        yield qp.submit(command)

    sim.run_process(submit())
    return command.cid


def first_tcp_conn_id():
    sim = Simulator()
    network = Network(sim)
    client = TcpStack(sim, network.endpoint("client"))
    TcpStack(sim, network.endpoint("server"))
    return sim.run_process(client.connect("server")).conn_id


def first_homa_message_id():
    sim = Simulator()
    network = Network(sim)
    sender = HomaSocket(sim, network.endpoint("a"))
    seen = arrivals(sim, network.endpoint("b"))
    sim.run_process(sending(sender.sendto, "b", "hello", 100))
    return seen[0][1].message_id


def first_rdma_op_id():
    sim = Simulator()
    network = Network(sim)
    nic = RdmaNic(sim, network.endpoint("a"))
    seen = arrivals(sim, network.endpoint("b"))
    sim.process(nic.read("b", rkey=1, offset=0, size=8))
    sim.run()  # nobody answers: the read stays pending
    return seen[0][1].op_id


@pytest.mark.parametrize("first_id, expected", [
    (first_nvme_cid, 0),
    (first_tcp_conn_id, ("client", 0)),
    (first_homa_message_id, 0),
    (first_rdma_op_id, 0),
], ids=["nvme-cid", "tcp-conn", "homa-message", "rdma-op"])
def test_every_simulator_starts_its_ids_at_zero(first_id, expected):
    assert [first_id(), first_id()] == [expected, expected]
