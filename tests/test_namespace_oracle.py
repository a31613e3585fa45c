"""The trimmed namespace store against the padded one it replaced.

``Namespace`` stores each block without its trailing zeros and pads it
back on read; ``tests/namespace_reference.py`` keeps the store that
padded every write to a whole block. Both run the same generated
sequence of writes and reads — short and multi-block payloads from an
alphabet rich in zeros, payloads ending in zero runs, all-zero blocks
over written ones, partial tails, reads of unwritten and partly written
ranges, and out-of-range addresses — and must agree exactly: every read's
bytes, every write's block count, and every ``CapacityError`` message.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import CapacityError
from repro.hw.nvme import LBA_SIZE, Namespace

from tests.namespace_reference import ReferenceNamespace

CAPACITY = 6
MAX_WRITE = 3 * LBA_SIZE + 1

#: Run lengths that land a run's end on, just before or just past a
#: block boundary, beside short ones.
RUN_LENGTHS = st.one_of(
    st.integers(0, 48),
    st.sampled_from([LBA_SIZE - 1, LBA_SIZE, LBA_SIZE + 1, 2 * LBA_SIZE]),
)

#: Payloads of 0..MAX_WRITE bytes built from runs of one byte each, most
#: of them zero runs, so blocks end (and begin) in zeros.
PAYLOADS = st.one_of(
    st.lists(
        st.tuples(st.sampled_from([0, 0, 0, 1, 0xFF]), RUN_LENGTHS),
        max_size=6,
    ).map(lambda runs: b"".join(bytes([v]) * n for v, n in runs)[:MAX_WRITE]),
    st.integers(0, MAX_WRITE).map(bytes),
    st.binary(max_size=64),
)

#: An address range that reaches one block past either end.
LBAS = st.integers(-1, CAPACITY + 1)

OPS = st.one_of(
    st.tuples(st.just("write"), LBAS, PAYLOADS, st.booleans()),
    st.tuples(st.just("read"), LBAS, st.integers(0, 4)),
)


def outcome(call, *args):
    try:
        return ("ok", call(*args))
    except CapacityError as error:
        return ("error", str(error))


def apply(namespace, op):
    if op[0] == "write":
        _, lba, payload, as_bytearray = op
        return outcome(
            namespace.write_blocks, lba,
            bytearray(payload) if as_bytearray else payload,
        )
    _, lba, count = op
    return outcome(namespace.read_blocks, lba, count)


def assert_same(ops):
    ours = Namespace(1, CAPACITY)
    reference = ReferenceNamespace(1, CAPACITY)
    for op in ops:
        assert apply(ours, op) == apply(reference, op), op
    # Every block, written or not, reads back the same in the end.
    for lba in range(CAPACITY):
        assert ours.read_blocks(lba, 1) == reference.read_blocks(lba, 1)


@settings(max_examples=300, deadline=None)
@given(st.lists(OPS, max_size=12))
def test_generated_sequences(ops):
    assert_same(ops)


ONES = b"\x01" * LBA_SIZE


@pytest.mark.parametrize("ops", [
    # A short record, then a read of it and of unwritten blocks around it.
    [("write", 1, b"rec\x00ord\x00\x00", False), ("read", 0, 3)],
    # Leading zeros inside a block are data, not padding.
    [("write", 0, b"\x00\x00\x07" + bytes(LBA_SIZE) + b"\x00\x09", False),
     ("read", 0, 2)],
    # An all-zero block written over a non-zero one reads back as zeros.
    [("write", 2, ONES * 2, False), ("write", 2, bytes(2 * LBA_SIZE), False),
     ("read", 1, 3)],
    # A multi-block write whose tail is partial, and whose last block is
    # all zero past a full first block.
    [("write", 0, ONES * 3, False),
     ("write", 0, ONES + bytes(LBA_SIZE + 5), False), ("read", 0, 3)],
    # An empty write is one block: it zeroes what was there.
    [("write", 3, b"xyz", False), ("write", 3, b"", False), ("read", 3, 1)],
    # Writes and reads that cross either end of the namespace.
    [("write", CAPACITY - 1, ONES + b"\x01", False), ("write", -1, b"a", False),
     ("read", CAPACITY - 1, 2), ("read", -1, 1), ("read", CAPACITY, 0)],
], ids=["short", "leading-zeros", "zeros-over-data", "partial-tail",
        "empty-write", "out-of-range"])
def test_named_sequences(ops):
    assert_same(ops)


def test_a_block_is_kept_without_its_trailing_zeros():
    ns = Namespace(1, CAPACITY)
    record = b"wal\x00record"
    assert ns.write_blocks(0, record + bytes(LBA_SIZE + 3)) == 2
    assert ns._blocks == {0: record, 1: b""}
