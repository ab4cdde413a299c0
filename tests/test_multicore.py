"""Tests for the shared-LLC multicore simulation mode."""

import pytest

from repro.errors import ConfigError, SimulationError
from repro.prefetchers import NextLinePrefetcher, generate_prefetches
from repro.sim import simulate
from repro.sim.multicore import MulticoreSimulator, simulate_multicore
from repro.sim.simulator import HierarchyConfig
from repro.types import PrefetchRequest

from tests.helpers import build_trace, seq_addresses


def _two_traces(n=800):
    a = build_trace(seq_addresses(n), pc=0x10, name="a")
    b = build_trace(seq_addresses(n, start_block=1 << 22), pc=0x20, name="b")
    return a, b


def test_requires_two_traces():
    with pytest.raises(ConfigError):
        simulate_multicore([_two_traces()[0]])


def test_single_use():
    sim = MulticoreSimulator(HierarchyConfig.scaled())
    sim.run(_two_traces(100))
    with pytest.raises(SimulationError):
        sim.run(_two_traces(100))


def test_per_core_results_complete():
    a, b = _two_traces(500)
    result = simulate_multicore([a, b], config=HierarchyConfig.scaled())
    assert len(result.per_core) == 2
    assert result.per_core[0].trace_name == "a"
    assert result.per_core[0].loads == 500
    assert all(r.ipc > 0 for r in result.per_core)


def test_address_isolation_no_false_sharing():
    # Both traces touch the same block numbers; isolation must keep
    # them apart (every access is a compulsory miss, no cross hits).
    a = build_trace(seq_addresses(300), pc=0x10, name="a")
    b = build_trace(seq_addresses(300), pc=0x20, name="b")
    result = simulate_multicore([a, b], config=HierarchyConfig.scaled())
    assert all(r.llc_misses == 300 for r in result.per_core)


def test_corun_degrades_ipc_vs_solo():
    """Shared LLC + DRAM contention must cost each program IPC."""
    hierarchy = HierarchyConfig.scaled()
    a, b = _two_traces(2000)
    solo_a = simulate(a, config=hierarchy)
    solo_b = simulate(b, config=hierarchy)
    co = simulate_multicore([a, b], config=hierarchy)
    assert co.per_core[0].ipc <= solo_a.ipc + 1e-9
    assert co.per_core[1].ipc <= solo_b.ipc + 1e-9
    ws = co.weighted_speedup([solo_a.ipc, solo_b.ipc])
    assert 0.5 < ws <= 2.0 + 1e-9


def test_weighted_speedup_validation():
    result = simulate_multicore(list(_two_traces(100)),
                                config=HierarchyConfig.scaled())
    with pytest.raises(ConfigError):
        result.weighted_speedup([1.0])
    with pytest.raises(ConfigError):
        result.weighted_speedup([1.0, 0.0])


def test_prefetching_in_corun():
    hierarchy = HierarchyConfig.scaled()
    a, b = _two_traces(1500)
    files = [generate_prefetches(NextLinePrefetcher(degree=2), t)
             for t in (a, b)]
    with_pf = simulate_multicore([a, b], files, config=hierarchy)
    without = simulate_multicore([a, b], config=hierarchy)
    assert sum(r.pf_issued for r in with_pf.per_core) > 0
    assert sum(r.pf_useful for r in with_pf.per_core) > 0
    total_with = sum(r.ipc for r in with_pf.per_core)
    total_without = sum(r.ipc for r in without.per_core)
    assert total_with > total_without  # sequential prefetch helps both


def test_prefetch_file_count_validation():
    a, b = _two_traces(50)
    with pytest.raises(ConfigError):
        simulate_multicore([a, b], prefetch_files=[[]])


def test_negative_prefetch_address_dropped_like_single_core():
    """A corrupt record is dropped and counted, not issued as a read of
    a negative block, exactly as the single-core simulator does."""
    hierarchy = HierarchyConfig.scaled()
    a, b = _two_traces(50)
    corrupt = [PrefetchRequest(a[0].instr_id, -320)]
    solo = simulate(a, corrupt, config=hierarchy)
    assert solo.pf_issued == 0 and solo.extra["pf_dropped"] == 1.0
    co = simulate_multicore([a, b], [corrupt, []], config=hierarchy)
    assert co.per_core[0].pf_issued == 0
    assert co.per_core[0].extra["pf_dropped"] == 1.0
    assert "pf_dropped" not in co.per_core[1].extra
    assert co.per_core[0].dram_requests == simulate_multicore(
        [a, b], config=hierarchy).per_core[0].dram_requests
