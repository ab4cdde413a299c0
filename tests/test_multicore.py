"""Tests for the shared-LLC multicore simulation mode."""

import dataclasses
import hashlib
import json
import warnings

import pytest

from repro.errors import ConfigError, EngineFallbackWarning, SimulationError
from repro.harness.runner import make_prefetcher
from repro.prefetchers import NextLinePrefetcher, generate_prefetches
from repro.sim import simulate
from repro.sim.fast_engine.planner import plan_replay
from repro.sim.multicore import MulticoreSimulator, simulate_multicore
from repro.sim.simulator import HierarchyConfig
from repro.traces import make_trace
from repro.types import PrefetchFile, PrefetchRequest

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


def test_address_isolation_holds_for_high_blocks():
    """A block with bit 44 or above set must not alias another core's
    tag: core 0 at 2^50 + 64 i, core 1 at 64 i share nothing."""
    a = build_trace([(1 << 50) + 64 * i for i in range(200)], pc=0x10,
                    name="a")
    b = build_trace([64 * i for i in range(200)], pc=0x20, name="b")
    result = simulate_multicore([a, b], config=HierarchyConfig.scaled())
    assert [(r.llc_misses, r.llc_hits) for r in result.per_core] \
        == [(200, 0), (200, 0)]


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


def test_non_lru_corun_warns_nothing():
    """A co-run has one loop and builds its cores' simulators without
    a warning (every level is LRU, so no configuration is a fallback)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", EngineFallbackWarning)
        result = simulate_multicore(list(_two_traces(100)))
    assert all(r.llc_misses == 100 for r in result.per_core)


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


def test_every_scheduled_prefetch_is_issued_or_dropped():
    """Solo and in a co-run, each block a core's plan schedules is
    either issued or counted in ``extra["pf_dropped"]``, as is each
    invalid record."""
    hierarchy = HierarchyConfig.scaled()
    traces = [make_trace(w, 3000, seed=2)
              for w in ("cc-5", "623-xalan-s1", "605-mcf-s1")]
    files = [generate_prefetches(NextLinePrefetcher(degree=2), t)
             for t in traces]
    scheduled = []
    for trace, pfile in zip(traces, files):
        plan = plan_replay(trace.arrays(),
                           PrefetchFile.for_trace(trace, pfile),
                           hierarchy.max_prefetches_per_access)
        scheduled.append(len(plan.pf_blocks) + len(plan.invalid))
    solo = [simulate(t, f, config=hierarchy) for t, f in zip(traces, files)]
    corun = simulate_multicore(traces, files, config=hierarchy).per_core
    for results in (solo, corun):
        assert [r.pf_issued + r.extra.get("pf_dropped", 0.0)
                for r in results] == scheduled


#: Co-runs of 3,000-load seed-2 traces on the scaled hierarchy as
#: (workloads, per-core prefetchers or None, address isolation) ->
#: (per-core (llc_hits, llc_misses, pf_issued, pf_useful), sha256 of
#: the per-core SimResult dicts as sorted-key JSON).  Recorded while
#: multicore kept its own copy of the demand, issue and fill path; the
#: SPP/BO/next-line hash again once each core published its dropped
#: prefetches (``pf_dropped`` 1,002, 29 and 54).
CORUN_PINNED = {
    (("cc-5", "623-xalan-s1"), None, True): (
        [(0, 2871, 0, 0), (25, 2962, 0, 0)],
        "afca4a80342e771da7ff1ec8ca05ac1f350a7cc074984dc2bd8a9dcd1ba3fb9b"),
    (("cc-5", "623-xalan-s1", "605-mcf-s1"), ("spp", "bo", "nextline"),
     True): (
        [(940, 1931, 1513, 322), (315, 2672, 2971, 507),
         (98, 2902, 5946, 782)],
        "b827cf5ab836ee9668f7bd1f78311232834759a1093a445d0dcd494fa6d326d9"),
    (("cc-5", "cc-5"), None, False): (
        [(1433, 1438, 0, 0), (1438, 1433, 0, 0)],
        "ba032a6b635b2c310eaf814340eaaed626c373bddb3f7652251759c0c7e800fa"),
}


@pytest.mark.parametrize("key", CORUN_PINNED)
def test_corun_results_pinned(key):
    workloads, prefetchers, isolation = key
    traces = [make_trace(w, 3000, seed=2) for w in workloads]
    files = None
    if prefetchers is not None:
        files = [generate_prefetches(make_prefetcher(p), t, budget=2)
                 for p, t in zip(prefetchers, traces)]
    result = MulticoreSimulator(HierarchyConfig.scaled(),
                                address_isolation=isolation).run(traces, files)
    payload = json.dumps([dataclasses.asdict(r) for r in result.per_core],
                         sort_keys=True)
    assert ([(r.llc_hits, r.llc_misses, r.pf_issued, r.pf_useful)
             for r in result.per_core],
            hashlib.sha256(payload.encode()).hexdigest()) == CORUN_PINNED[key]
