"""Tests for the calibrated workload generators."""

import pytest

from repro.errors import ConfigError
from repro.traces import WORKLOAD_NAMES, get_workload_spec, make_trace


def test_all_eleven_workloads_registered():
    assert len(WORKLOAD_NAMES) == 11
    for name in WORKLOAD_NAMES:
        spec = get_workload_spec(name)
        assert spec.name == name
        assert spec.components
        assert spec.mean_instr_gap >= 1.0


def test_unknown_workload_raises():
    with pytest.raises(ConfigError):
        get_workload_spec("nonexistent")


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_generates_valid_trace(name):
    trace = make_trace(name, 1500, seed=2)
    assert len(trace) == 1500
    assert trace.name == name
    ids = [a.instr_id for a in trace]
    assert all(b > a for a, b in zip(ids, ids[1:]))


def test_make_trace_deterministic():
    a = make_trace("cc-5", 800, seed=3)
    b = make_trace("cc-5", 800, seed=3)
    assert a == b


def test_make_trace_seed_changes_trace():
    a = make_trace("cc-5", 800, seed=3)
    b = make_trace("cc-5", 800, seed=4)
    assert a != b


def test_instruction_density_matches_table5():
    # cc-5 averages ~31 instructions/load; cassandra ~207 (paper Table 5).
    cc = make_trace("cc-5", 3000, seed=1)
    cassandra = make_trace("cassandra-phase0-core0", 3000, seed=1)
    cc_gap = cc.instruction_count / len(cc)
    cas_gap = cassandra.instruction_count / len(cassandra)
    assert 24 < cc_gap < 40
    assert 160 < cas_gap < 260


def test_components_use_disjoint_pcs_and_regions():
    trace = make_trace("cc-5", 2000, seed=1)
    spec = get_workload_spec("cc-5")
    pcs = {a.pc for a in trace}
    # Interleaved components contribute two PCs each.
    n_inter = sum(1 for c in spec.components if c.kind == "interleaved")
    assert len(pcs) == len(spec.components) + n_inter


def test_temporal_workload_has_address_reuse():
    trace = make_trace("623-xalan-s1", 12000, seed=1)
    blocks = [a.block for a in trace]
    assert len(set(blocks)) < len(blocks) * 0.9  # replay repeats addresses


def test_fresh_page_workload_has_little_reuse():
    trace = make_trace("473-astar-s1", 6000, seed=1)
    blocks = [a.block for a in trace]
    assert len(set(blocks)) > len(blocks) * 0.8


def test_delta_statistics_shape():
    """Qualitative Table 8 shape (windowed, as the paper counts it):
    sphinx has few distinct deltas per 1K accesses, cc has many, and
    mcf has by far the fewest deltas overall."""
    from repro.analysis import delta_statistics

    sphinx = delta_statistics(make_trace("482-sphinx-s0", 8000, seed=1))
    cc = delta_statistics(make_trace("cc-5", 8000, seed=1))
    mcf = delta_statistics(make_trace("605-mcf-s1", 8000, seed=1))
    # distinct: sphinx << cc
    assert int(sphinx.avg_distinct) < int(cc.avg_distinct)
    # density: mcf lowest
    assert int(mcf.avg_deltas) < int(sphinx.avg_deltas) / 3
