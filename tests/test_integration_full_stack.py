"""Full-stack integration: the complete CPU-free lifecycle in one scenario.

Boot -> sign + remotely load a verified eBPF accelerator through the
OS-shell -> run packets through the slot's hardware pipeline -> keep
durable state in the single-level store -> persist -> power-cycle ->
recover -> keep serving. Every hop crosses module boundaries the unit
tests exercise in isolation.
"""

import pytest

from repro.apps.fail2ban import BAN_MAP_FD, build_fail2ban_program
from repro.common.ids import ObjectId
from repro.dpu import HyperionDpu, OsShell
from repro.ebpf.maps import HashMap
from repro.hdl import HardwarePipeline, compile_program
from repro.hw.fpga.bitstream import BitstreamAuthority
from repro.hw.net import Network
from repro.sim import Simulator
from repro.transport import RpcClient, RpcServer, UdpSocket


@pytest.fixture
def stack():
    sim = Simulator()
    net = Network(sim)
    dpu = HyperionDpu(sim, net, ssd_blocks=16384)
    sim.run_process(dpu.boot())
    authority = BitstreamAuthority(b"integration-key")
    shell = OsShell(
        dpu, RpcServer(sim, UdpSocket(sim, net.endpoint("shell"))), authority
    )
    operator = RpcClient(sim, UdpSocket(sim, net.endpoint("operator")))
    return sim, net, dpu, authority, shell, operator


def test_full_lifecycle(stack):
    sim, net, dpu, authority, shell, operator = stack

    # 1. Compile + verify the accelerator, sign it, load it over the network.
    # (compile_program raises VerificationError on a rejected program.)
    compiled = compile_program(build_fail2ban_program(threshold=2))
    signed = authority.sign(compiled.to_bitstream(name="fail2ban"))

    def load():
        slot_index = yield from operator.call(
            "shell", "shell.load", signed, "netops",
            request_size=signed.bitstream.size_bytes, response_size=16,
        )
        return slot_index

    slot_index = sim.run_process(load())
    slot = dpu.fabric.slots[slot_index]
    assert slot.loaded.name == "fail2ban"
    assert slot.loaded.kernel is compiled  # the executable model traveled

    # 2. Instantiate the pipeline from the *loaded slot's* kernel and
    #    stream packets through it.
    ban_map = HashMap(key_size=8, value_size=8, max_entries=1024)
    pipeline = HardwarePipeline(
        sim, slot.loaded.kernel, maps={BAN_MAP_FD: ban_map}
    )
    attacker = (0xBADBEEF).to_bytes(4, "little") + b"\x01"

    def attack():
        verdicts = []
        for _ in range(5):
            result = yield from pipeline.execute(attacker)
            verdicts.append(result.return_value)
        return verdicts

    verdicts = sim.run_process(attack())
    assert verdicts[:2] == [1, 1]  # first two failures pass
    assert set(verdicts[2:]) == {0}  # then the source is banned

    # 3. Persist the ban state into a durable segment + the table.
    state_oid = ObjectId(0xFEED)
    segment = dpu.store.allocate(4096, durable=True, oid=state_oid)
    exported = b"".join(key + bytes(value) for key, value in ban_map.items())
    dpu.store.write(state_oid, exported)
    dpu.store.persist_table()

    # 4. Power loss. DRAM (and the loaded slot) are gone; flash survives.
    twin = dpu.power_cycle()
    report = sim.run_process(twin.boot(recover_store=True))
    assert report.recovered_segments == 1
    assert twin.fabric.free_slot() is not None  # slots came back empty
    recovered = twin.store.read(state_oid, len(exported))
    assert recovered == exported

    # 5. Reload the accelerator (same signed image) and keep serving: the
    #    recovered state seeds the new map, so the ban persists.
    recovered_map = HashMap(key_size=8, value_size=8, max_entries=1024)
    for at in range(0, len(recovered), 16):
        recovered_map.update(recovered[at : at + 8], recovered[at + 8 : at + 16])
    pipeline2 = HardwarePipeline(
        sim, compiled, maps={BAN_MAP_FD: recovered_map}
    )
    result = sim.run_process(pipeline2.execute(attacker))
    assert result.return_value == 0  # still banned after the power cut


def test_lifecycle_rejects_unsigned_reload(stack):
    sim, net, dpu, authority, shell, operator = stack
    compiled = compile_program(build_fail2ban_program())
    forged = BitstreamAuthority(b"other-key").sign(compiled.to_bitstream())

    def load():
        yield from operator.call(
            "shell", "shell.load", forged, "mallory",
            request_size=1024, response_size=16,
        )

    with pytest.raises(Exception, match="signature"):
        sim.run_process(load())
    assert all(not slot.occupied for slot in dpu.fabric.slots)
