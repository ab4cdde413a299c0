"""Unit tests for address arithmetic and trace containers."""

import pickle

import numpy as np
import pytest

from repro.errors import TraceError
from repro.types import (
    BLOCKS_PER_PAGE,
    MAX_DELTA,
    MemoryAccess,
    PrefetchRequest,
    Trace,
    block_address,
    block_of,
    compose_address,
    deltas_of,
    page_of,
    page_offset,
    validate_trace,
)


def test_block_and_page_decomposition():
    address = 0x12345678
    assert block_of(address) == address >> 6
    assert page_of(address) == address >> 12
    assert 0 <= page_offset(address) < BLOCKS_PER_PAGE
    assert block_address(address) % 64 == 0
    assert block_address(address) <= address < block_address(address) + 64


def test_compose_address_roundtrip():
    for page in (0, 1, 12345):
        for offset in (0, 1, 63):
            address = compose_address(page, offset)
            assert page_of(address) == page
            assert page_offset(address) == offset


def test_compose_address_rejects_bad_offset():
    with pytest.raises(ValueError):
        compose_address(1, 64)
    with pytest.raises(ValueError):
        compose_address(1, -1)


def test_memory_access_properties():
    acc = MemoryAccess(instr_id=10, pc=0x400, address=compose_address(5, 7))
    assert acc.page == 5
    assert acc.offset == 7
    assert acc.block == (5 << 6) | 7


def test_prefetch_request_block():
    req = PrefetchRequest(trigger_instr_id=1, address=0x1000)
    assert req.block == 0x1000 >> 6


def test_trace_len_iter_getitem():
    accesses = [MemoryAccess(i + 1, 0x4, i * 64) for i in range(5)]
    trace = Trace.from_accesses("t", accesses)
    assert len(trace) == 5
    # Rows are built on demand: equal, not the same object.
    assert list(trace)[2] == trace[2] == accesses[2]
    assert list(trace) == accesses
    assert trace[-1] == accesses[-1]
    assert trace.instruction_count == accesses[-1].instr_id + 1


def test_trace_is_its_columns():
    trace = Trace("t", [1, 5, 9], [0x4, 0x8, 0x4], [64, 128, 4096])
    assert trace.instr_ids.dtype == np.int64
    assert trace.blocks.tolist() == [1, 2, 64]
    assert trace[1] == MemoryAccess(5, 0x8, 128)
    assert trace == Trace.from_accesses("t", list(trace))
    with pytest.raises(IndexError):
        trace[3]
    with pytest.raises(TypeError):
        trace[0:2]
    with pytest.raises(ValueError):
        Trace("t", [1, 2], [0x4], [64, 128])


def test_trace_equality_compares_content():
    def make(name="t", total=None, address=128):
        return Trace(name, [1, 2], [0x4, 0x4], [64, address],
                     total_instructions=total)
    assert make() == make()
    assert make() != make(name="u")
    assert make() != make(total=3)
    assert make() != make(address=192)
    assert make() != Trace("t", [1], [0x4], [64])
    assert Trace("e") == Trace.from_accesses("e", [])


def test_trace_pickle_round_trip():
    trace = Trace("t", np.arange(1, 1001), np.full(1000, 0x4),
                  np.arange(1000) * 64, total_instructions=2000)
    copy = pickle.loads(pickle.dumps(trace))
    assert copy == trace
    assert copy.blocks.tolist() == trace.blocks.tolist()


def test_trace_explicit_instruction_count():
    trace = Trace.from_accesses("t", [MemoryAccess(1, 0, 0)],
                                total_instructions=99)
    assert trace.instruction_count == 99


def test_trace_head():
    accesses = [MemoryAccess(i + 1, 0x4, i * 64) for i in range(5)]
    trace = Trace.from_accesses("t", accesses)
    head = trace.head(2)
    assert len(head) == 2
    assert head.instruction_count == accesses[1].instr_id + 1


def test_deltas_within_page_per_stream():
    # Two interleaved streams on the same page with different PCs must
    # not contaminate each other's deltas.
    accesses = [
        MemoryAccess(1, 0xA, compose_address(1, 0)),
        MemoryAccess(2, 0xB, compose_address(1, 10)),
        MemoryAccess(3, 0xA, compose_address(1, 2)),
        MemoryAccess(4, 0xB, compose_address(1, 13)),
    ]
    trace = Trace.from_accesses("t", accesses)
    assert sorted(trace.deltas_within_page().tolist()) == [2, 3]


def test_deltas_within_page_skips_zero_and_out_of_range():
    accesses = [
        MemoryAccess(1, 0xA, compose_address(1, 5)),
        MemoryAccess(2, 0xA, compose_address(1, 5)),   # zero delta
        MemoryAccess(3, 0xA, compose_address(2, 0)),   # page change
        MemoryAccess(4, 0xA, compose_address(2, 4)),
    ]
    trace = Trace.from_accesses("t", accesses)
    assert trace.deltas_within_page().tolist() == [4]
    assert trace.stream_deltas().tolist() == [0, 0, 0, 4]


def test_validate_trace_rejects_empty_and_nonmonotonic():
    with pytest.raises(TraceError):
        validate_trace(Trace(name="empty"))
    bad = Trace("bad", [1, 5, 5, 4], [0] * 4, [0, 64, 128, 192])
    with pytest.raises(TraceError, match=r"at index 2 \(5 after 5\)"):
        validate_trace(bad)


def test_deltas_of():
    assert deltas_of([1, 3, 6, 4]) == (2, 3, -2)
    assert deltas_of([7]) == ()


def test_max_delta_constant():
    assert MAX_DELTA == 63
    assert BLOCKS_PER_PAGE == 64
