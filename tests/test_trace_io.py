"""Trace (de)serialisation tests."""

import pytest

from repro.errors import TraceError, TraceFormatError
from repro.traces import load_trace, save_trace
from repro.types import MemoryAccess, Trace


def _sample_trace():
    accesses = [MemoryAccess(10 * (i + 1), 0x400 + i, i * 64)
                for i in range(20)]
    return Trace.from_accesses("sample", accesses, total_instructions=500)


def test_save_load_roundtrip(tmp_path):
    trace = _sample_trace()
    path = tmp_path / "trace.txt"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded.name == "sample"
    assert loaded.instruction_count == 500
    assert loaded == trace


def test_save_load_gzip_roundtrip(tmp_path):
    trace = _sample_trace()
    path = tmp_path / "trace.txt.gz"
    save_trace(trace, path)
    loaded = load_trace(path)
    assert loaded == trace


def test_load_name_override(tmp_path):
    path = tmp_path / "trace.txt"
    save_trace(_sample_trace(), path)
    assert load_trace(path, name="other").name == "other"


def test_load_hand_authored(tmp_path):
    path = tmp_path / "hand.txt"
    path.write_text("# comment\n1, 0x400, 0x1000\n\n2, 0x404, 0x1040\n")
    trace = load_trace(path)
    assert len(trace) == 2
    assert trace[0].pc == 0x400
    assert trace[1].address == 0x1040


def test_load_rejects_malformed_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1, 0x400\n")
    with pytest.raises(TraceError):
        load_trace(path)


def test_load_rejects_non_numeric(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1, 0x400, zzz\n")
    with pytest.raises(TraceError):
        load_trace(path)


def test_load_rejects_nonmonotonic_ids(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("5, 0x400, 0x1000\n5, 0x400, 0x1040\n")
    with pytest.raises(TraceError):
        load_trace(path)


@pytest.mark.parametrize("line,field", [
    ("2, 0x400, 0x10000000000000000", "address"),
    ("2, 0x400, 0x8000000000000000", "address"),
    ("2, 0x8000000000000000, 0x1000", "pc"),
    ("9223372036854775808, 0x400, 0x1000", "instr_id"),
    ("-2, 0x400, 0x1000", "instr_id"),
    ("2, -0x400, 0x1000", "pc"),
    ("2, 0x400, -0x40", "address"),
])
def test_load_rejects_fields_outside_int64(tmp_path, line, field):
    # ML-DPC fields are unsigned and the columns are int64: a value
    # outside [0, 2**63) fails here, with its line, not later in replay.
    path = tmp_path / "bad.txt"
    path.write_text(f"1, 0x400, 0x1000\n{line}\n3, 0x400, 0x1040\n")
    with pytest.raises(TraceFormatError, match=field) as info:
        load_trace(path)
    assert info.value.path == str(path)
    assert info.value.lineno == 2


def test_load_accepts_largest_int64_fields(tmp_path):
    path = tmp_path / "edge.txt"
    path.write_text("0, 0x0, 0x0\n"
                    "9223372036854775807, 0x7fffffffffffffff, "
                    "0x7fffffffffffffff\n")
    trace = load_trace(path)
    assert trace[1].address == trace[1].pc == (1 << 63) - 1
    assert trace.blocks[1] == ((1 << 63) - 1) >> 6


@pytest.mark.parametrize("total", [-50, 0, 2])
@pytest.mark.parametrize("header_first", [True, False])
def test_load_rejects_total_instructions_below_last_id(tmp_path, total,
                                                       header_first):
    # Two loads with ids 1 and 2 cover at least 3 instructions; a header
    # claiming fewer would give a negative or inflated IPC.  The header
    # may follow the loads, so it is checked after the last line.
    header = f"# total_instructions: {total}\n"
    loads = "1, 0x400, 0x1000\n2, 0x404, 0x1040\n"
    path = tmp_path / "bad.txt"
    path.write_text(header + loads if header_first else loads + header)
    with pytest.raises(TraceFormatError, match="total_instructions") as info:
        load_trace(path)
    assert info.value.path == str(path)
    assert info.value.lineno == (1 if header_first else 3)


@pytest.mark.parametrize("total", [3, 1000])
def test_load_accepts_total_instructions_from_last_id(tmp_path, total):
    path = tmp_path / "ok.txt"
    path.write_text("1, 0x400, 0x1000\n2, 0x404, 0x1040\n"
                    f"# total_instructions: {total}\n")
    assert load_trace(path).instruction_count == total
