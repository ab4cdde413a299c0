"""Tests for the noise-injection trace transforms."""

import pytest

from repro.errors import ConfigError
from repro.traces import (
    drop_accesses,
    interleave_traces,
    make_trace,
    reorder_accesses,
)
from repro.types import validate_trace

from tests.helpers import build_trace, seq_addresses


def test_reorder_window_one_is_identity():
    trace = build_trace(seq_addresses(50))
    out = reorder_accesses(trace, window=1, seed=3)
    assert [a.address for a in out] == [a.address for a in trace]


def test_reorder_preserves_access_multiset_and_ids():
    trace = build_trace(seq_addresses(101))
    out = reorder_accesses(trace, window=8, seed=3)
    assert sorted(a.address for a in out) == sorted(
        a.address for a in trace)
    assert [a.instr_id for a in out] == [a.instr_id for a in trace]
    validate_trace(out)


def test_reorder_is_local():
    trace = build_trace(seq_addresses(100))
    out = reorder_accesses(trace, window=5, seed=3)
    for index, access in enumerate(out):
        source_index = (access.address >> 6) - (1 << 20)
        assert abs(source_index - index) < 5


def test_reorder_actually_perturbs():
    trace = build_trace(seq_addresses(100))
    out = reorder_accesses(trace, window=8, seed=3)
    assert [a.address for a in out] != [a.address for a in trace]


def test_reorder_validation():
    with pytest.raises(ConfigError):
        reorder_accesses(build_trace(seq_addresses(5)), window=0)


def test_interleave_isolates_address_spaces():
    a = build_trace(seq_addresses(30), pc=0x10, name="a")
    b = build_trace(seq_addresses(30), pc=0x20, name="b")
    merged = interleave_traces([a, b])
    assert len(merged) == 60
    validate_trace(merged)
    spaces = {acc.address >> 44 for acc in merged}
    assert spaces == {0, 1}
    pcs = {acc.pc >> 32 for acc in merged}
    assert pcs == {0, 1}


def test_interleave_preserves_per_program_order():
    a = build_trace(seq_addresses(40), pc=0x10, name="a")
    b = build_trace(seq_addresses(40, start_block=1 << 22), pc=0x20,
                    name="b")
    merged = interleave_traces([a, b], seed=5)
    blocks_a = [acc.address & ((1 << 44) - 1) for acc in merged
                if acc.address >> 44 == 0]
    assert blocks_a == sorted(blocks_a)


def test_interleave_needs_two():
    with pytest.raises(ConfigError):
        interleave_traces([build_trace(seq_addresses(5))])


def test_interleaved_workloads_end_to_end():
    a = make_trace("cc-5", 1500, seed=1)
    b = make_trace("482-sphinx-s0", 1500, seed=1)
    merged = interleave_traces([a, b])
    from repro.sim import simulate
    from repro.sim.simulator import HierarchyConfig

    result = simulate(merged, config=HierarchyConfig.scaled())
    assert result.loads == 3000


def test_drop_accesses_fraction():
    trace = build_trace(seq_addresses(1000))
    out = drop_accesses(trace, 0.3, seed=2)
    assert 600 < len(out) < 800
    validate_trace(out)


def test_drop_validation():
    trace = build_trace(seq_addresses(5))
    with pytest.raises(ConfigError):
        drop_accesses(trace, 1.0)
    with pytest.raises(ConfigError):
        drop_accesses(trace, -0.1)


def test_noise_experiment_small():
    from repro.harness import run_experiment

    result = run_experiment("noise", n_accesses=1500,
                            workloads=["cc-5"], reorder_windows=(1, 8))
    assert "retained:pathfinder" in result.metrics
    assert "retained:spp" in result.metrics
