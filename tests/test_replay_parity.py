"""Cross-engine parity: the batch kernel must match the reference loop.

The batch engine (``repro.sim.fast_engine.batch``) re-implements the
reference replay loop as a columnar plan executed by a compiled
kernel; the only permitted difference is wall-clock time.  These tests
replay the same (trace, prefetch file) under both engines for every
registered prefetcher across three behaviourally distinct workloads
and require the *entire* :class:`~repro.sim.metrics.SimResult` —
cycles included, to the last float bit — to match, along with the
metrics registry and the windowed series.
"""

from __future__ import annotations

import warnings

import pytest

from repro.errors import ConfigError, EngineFallbackWarning
from repro.obs import MemorySink, Observability, SeriesCollector, Tracer
from repro.prefetchers.base import generate_prefetches
from repro.sim.cache import CacheConfig
from repro.sim.simulator import HierarchyConfig, Simulator, simulate
from repro.traces.workloads import make_trace
from repro.harness.runner import PREFETCHER_FACTORIES, default_hierarchy

#: Three workloads with distinct pattern mixes: delta/interleaved-heavy,
#: temporal-replay-heavy, and irregular chase-heavy.
PARITY_WORKLOADS = ("cc-5", "471-omnetpp-s1", "605-mcf-s1")
N_ACCESSES = 2500
SEED = 11

_trace_cache = {}
_request_cache = {}


def _trace(workload: str):
    if workload not in _trace_cache:
        _trace_cache[workload] = make_trace(workload, N_ACCESSES, seed=SEED)
    return _trace_cache[workload]


def _requests(workload: str, prefetcher: str):
    key = (workload, prefetcher)
    if key not in _request_cache:
        factory = PREFETCHER_FACTORIES[prefetcher]
        _request_cache[key] = generate_prefetches(factory(), _trace(workload))
    return _request_cache[key]


@pytest.mark.parametrize("engine", ("batch",))
@pytest.mark.parametrize("workload", PARITY_WORKLOADS)
@pytest.mark.parametrize("prefetcher", sorted(PREFETCHER_FACTORIES))
def test_engines_bit_identical(workload, prefetcher, engine):
    trace = _trace(workload)
    requests = _requests(workload, prefetcher)
    reference = simulate(trace, requests, default_hierarchy(),
                         prefetcher, engine="reference")
    candidate = simulate(trace, requests, default_hierarchy(),
                         prefetcher, engine=engine)
    assert candidate == reference


@pytest.mark.parametrize("engine", ("batch",))
def test_engines_bit_identical_without_prefetches(engine):
    trace = _trace("cc-5")
    reference = simulate(trace, (), default_hierarchy(), "none",
                         engine="reference")
    candidate = simulate(trace, (), default_hierarchy(), "none",
                         engine=engine)
    assert candidate == reference


def test_batch_engine_is_the_default():
    sim = Simulator(default_hierarchy())
    assert sim.engine_used == "batch"


def test_unknown_engine_rejected():
    for engine in ("turbo", "fast"):
        with pytest.raises(ConfigError):
            Simulator(default_hierarchy(), engine=engine)


@pytest.mark.parametrize("engine", ("batch",))
def test_srrip_config_falls_back_to_reference(engine):
    config = HierarchyConfig(
        llc=CacheConfig(name="LLC", sets=128, ways=16, latency=20,
                        replacement="srrip"))
    with pytest.warns(EngineFallbackWarning, match="non-LRU"):
        sim = Simulator(config, engine=engine)
    assert sim.engine_used == "reference"
    # And the run still works end to end.
    result = sim.run(_trace("cc-5"), (), "none")
    assert result.llc_misses > 0


@pytest.mark.parametrize("engine", ("batch",))
def test_event_tracing_falls_back_to_reference(engine):
    obs = Observability(tracer=Tracer(MemorySink()))
    with pytest.warns(EngineFallbackWarning, match="event tracing"):
        sim = Simulator(default_hierarchy(), obs=obs, engine=engine)
    assert sim.engine_used == "reference"


def test_armed_faults_keep_the_batch_engine():
    """No fault point fires inside the replay, so chaos runs exercise
    the same kernel production runs do — silently, bit-identically."""
    from repro.resilience.faults import FaultPlan, injected

    trace = _trace("cc-5")
    requests = _requests("cc-5", "nextline")
    reference = simulate(trace, requests, default_hierarchy(), "nextline",
                         engine="reference")
    plan = FaultPlan.parse("prefetcher.access:p=0", seed=3)
    with injected(plan), warnings.catch_warnings():
        warnings.simplefilter("error", EngineFallbackWarning)
        sim = Simulator(default_hierarchy(), engine="batch")
        assert sim.run(trace, requests, "nextline") == reference
    assert sim.engine_used == "batch"


def test_compatible_requests_warn_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error", EngineFallbackWarning)
        for engine in ("batch", "reference"):
            assert Simulator(default_hierarchy(),
                             engine=engine).engine_used == engine


def test_metrics_observability_parity():
    """Metrics-only observability stays on the kernel and mirrors the
    same counters and DRAM wait histogram as the reference."""
    trace = _trace("471-omnetpp-s1")
    requests = _requests("471-omnetpp-s1", "nextline")

    def run(engine):
        obs = Observability()
        sim = Simulator(default_hierarchy(), obs=obs, engine=engine)
        result = sim.run(trace, requests, "nextline")
        return sim, result, obs.registry.snapshot()

    batch_sim, batch_result, batch_metrics = run("batch")
    ref_sim, ref_result, ref_metrics = run("reference")
    assert batch_sim.engine_used == "batch"
    assert ref_sim.engine_used == "reference"
    assert batch_result == ref_result
    assert batch_metrics == ref_metrics


@pytest.mark.parametrize("workload", PARITY_WORKLOADS)
@pytest.mark.parametrize("prefetcher", ("nextline", "spp", "pathfinder"))
def test_series_snapshots_match_reference(workload, prefetcher):
    """Every windowed series — the DRAM queue gauge included — is the
    same whichever engine collected it."""
    trace = _trace(workload)
    requests = _requests(workload, prefetcher)

    def snapshot(engine):
        obs = Observability(series=SeriesCollector(window=256))
        result = simulate(trace, requests, default_hierarchy(), prefetcher,
                          obs=obs, engine=engine)
        return result, obs.series.snapshot()

    assert snapshot("batch") == snapshot("reference")


# -- edge cases ---------------------------------------------------------------

from repro.types import MemoryAccess, PrefetchRequest, Trace  # noqa: E402


def _both_engines(trace, requests):
    reference = simulate(trace, requests, default_hierarchy(), "t",
                         engine="reference")
    batch = simulate(trace, requests, default_hierarchy(), "t",
                     engine="batch")
    return batch, reference


def test_triggers_missing_from_trace_are_ignored():
    """Prefetch triggers that name no trace instruction are silently
    dropped by both engines (ChampSim semantics)."""
    accesses = [MemoryAccess(instr_id=(i + 1) * 10, pc=0x4,
                             address=(1 << 20 | i) << 6)
                for i in range(64)]
    trace = Trace.from_accesses("t", accesses, total_instructions=641)
    requests = [PrefetchRequest(trigger_instr_id=10,
                                address=(1 << 21) << 6),
                PrefetchRequest(trigger_instr_id=15,       # no such id
                                address=(1 << 21 | 1) << 6),
                PrefetchRequest(trigger_instr_id=99_999,   # past the end
                                address=(1 << 21 | 2) << 6)]
    batch, reference = _both_engines(trace, requests)
    assert batch == reference
    assert batch.pf_issued == 1


def test_non_monotone_instr_ids_take_dict_fallback():
    """Duplicate/regressing instruction ids make the plan ineligible;
    the reference loop's dict probe re-issues each duplicate's list."""
    ids = [10, 20, 20, 15, 30, 40, 40, 50]
    accesses = [MemoryAccess(instr_id=i, pc=0x4,
                             address=(1 << 20 | k) << 6)
                for k, i in enumerate(ids)]
    trace = Trace.from_accesses("t", accesses, total_instructions=51)
    requests = [PrefetchRequest(trigger_instr_id=20,
                                address=(1 << 21) << 6),
                PrefetchRequest(trigger_instr_id=40,
                                address=(1 << 21 | 1) << 6)]
    with pytest.warns(EngineFallbackWarning, match="non-monotone"):
        batch, reference = _both_engines(trace, requests)
    assert batch == reference
    assert batch.pf_issued == 2


def test_assured_miss_blocks_that_are_prefetch_targets_stay_scalar():
    """A first-touch block that is also a prefetch target must still
    pass the in-flight/LLC checks, so a timely prefetch converts it
    into an LLC hit."""
    blocks = [1 << 20 | k for k in range(48)]
    # Re-demand the prefetched block late enough for the fill to land.
    target = 1 << 21
    addresses = [b << 6 for b in blocks] + [target << 6]
    accesses = [MemoryAccess(instr_id=(i + 1) * 10, pc=0x4, address=a)
                for i, a in enumerate(addresses)]
    trace = Trace.from_accesses("t", accesses,
                  total_instructions=len(accesses) * 10 + 1)
    requests = [PrefetchRequest(trigger_instr_id=10, address=target << 6)]
    batch, reference = _both_engines(trace, requests)
    assert batch == reference
    assert batch.pf_useful >= 1


# -- replay planner and batch fallbacks ---------------------------------------
#
# The replay planner lays a prefetch file's triggers out over trace
# positions (CSR) and decides whether the kernel may run.  These tests
# pin its edge cases and the driver's fallback to the reference loop.

import numpy as np  # noqa: E402

from repro.sim.fast_engine import batch as batch_module  # noqa: E402
from repro.sim.fast_engine.planner import (  # noqa: E402
    MAX_KERNEL_INSTR_ID,
    plan_replay,
)
from repro.types import PrefetchFile  # noqa: E402


def _mini_trace(ids_blocks, name="t"):
    accesses = [MemoryAccess(instr_id=i, pc=0x4, address=b << 6)
                for i, b in ids_blocks]
    total = max((i for i, _ in ids_blocks), default=0) + 1
    return Trace.from_accesses(name, accesses, total_instructions=total)


def _file(trace, *records):
    """A prefetch file of ``(trigger, block)`` records, in file order."""
    return PrefetchFile.from_requests(
        trace, [PrefetchRequest(trigger_instr_id=trigger, address=block << 6)
                for trigger, block in records])


def _falls_back(trace, requests, match):
    """Run the batch engine expecting a visible run-time fallback."""
    sim = Simulator(default_hierarchy(), engine="batch")
    with pytest.warns(EngineFallbackWarning, match=match):
        result = sim.run(trace, requests, "t")
    assert sim.engine_used == "reference"
    return result


def test_planner_empty_trace():
    trace = Trace.from_accesses("t", [], total_instructions=0)
    plan = plan_replay(trace.arrays(), _file(trace), 2)
    assert plan.kernel_eligible
    assert plan.pf_starts.tolist() == [0] and len(plan.pf_blocks) == 0
    batch, reference = _both_engines(trace, ())
    assert batch == reference


def test_planner_single_access_trace():
    trace = _mini_trace([(10, 1 << 20)])
    plan = plan_replay(trace.arrays(), _file(trace), 2)
    assert plan.pf_starts.tolist() == [0, 0] and len(plan.pf_blocks) == 0
    # Triggered on its only access: one CSR row holding the block.
    plan = plan_replay(trace.arrays(), _file(trace, (10, 1 << 21)), 2)
    assert plan.pf_starts.tolist() == [0, 1]
    assert plan.pf_blocks.tolist() == [1 << 21]
    batch, reference = _both_engines(
        trace, [PrefetchRequest(trigger_instr_id=10,
                                address=(1 << 21) << 6)])
    assert batch == reference


def test_planner_csr_alignment_tiles_exactly():
    ids_blocks = [((k + 1) * 10, (1 << 20) + k) for k in range(20)]
    trace = _mini_trace(ids_blocks)
    pfile = _file(trace, (200, (1 << 21) + 2), (50, 1 << 21),
                  (120, (1 << 21) + 1), (120, (1 << 21) + 3),
                  (125, (1 << 21) + 9))  # names no trace instruction
    plan = plan_replay(trace.arrays(), pfile, 2)
    starts = plan.pf_starts
    # Rows tile pf_blocks exactly, in trace order, without overlap.
    assert starts[0] == 0 and starts[-1] == len(plan.pf_blocks)
    assert np.all(np.diff(starts) >= 0)
    rows = {i: plan.pf_blocks[starts[i]:starts[i + 1]].tolist()
            for i in range(20) if starts[i + 1] > starts[i]}
    # Positions 4, 11, 19 trigger; the unknown id 125 is dropped.
    assert rows == {4: [1 << 21], 11: [(1 << 21) + 1, (1 << 21) + 3],
                    19: [(1 << 21) + 2]}


def test_fill_on_window_boundary_is_bit_identical():
    """A prefetch whose fill completes exactly when a later trigger
    access dispatches must be visible to that access in both
    engines."""
    gap = 40  # wide instruction gap: fill completes before re-demand
    ids_blocks = [((k + 1) * gap, (1 << 20) + k) for k in range(30)]
    target = 1 << 21
    ids_blocks.append(((31) * gap, target))  # boundary access re-demands
    trace = _mini_trace(ids_blocks)
    requests = [PrefetchRequest(trigger_instr_id=gap, address=target << 6),
                PrefetchRequest(trigger_instr_id=15 * gap,
                                address=(target + 1) << 6)]
    batch, reference = _both_engines(trace, requests)
    assert batch == reference
    assert batch.pf_useful >= 1


def test_planner_rejects_non_monotone_ids():
    trace = _mini_trace([(10, 1 << 20), (30, (1 << 20) + 1),
                         (20, (1 << 20) + 2)])
    plan = plan_replay(trace.arrays(), _file(trace), 2)
    assert not plan.kernel_eligible
    assert "monotone" in plan.fallback_reason
    # The replay still runs (reference fallback) and stays bit-identical.
    assert _falls_back(trace, (), "non-monotone") == simulate(
        trace, (), default_hierarchy(), "t", engine="reference")


def test_planner_rejects_oversized_instruction_ids():
    trace = _mini_trace([(10, 1 << 20),
                         (MAX_KERNEL_INSTR_ID + 7, (1 << 20) + 1)])
    plan = plan_replay(trace.arrays(), _file(trace), 2)
    assert not plan.kernel_eligible
    assert "bound" in plan.fallback_reason
    assert _falls_back(trace, (), "bound") == simulate(
        trace, (), default_hierarchy(), "t", engine="reference")


def test_first_touch_prefetch_targets_stay_coupled():
    """A first-touch block that is also the target of an earlier
    trigger must see the in-flight prefetch when it is demanded."""
    ids_blocks = [((k + 1) * 10, (1 << 20) + k) for k in range(10)]
    target = (1 << 20) + 5  # first-touched at position 5, prefetched at 0
    trace = _mini_trace(ids_blocks)
    plan = plan_replay(trace.arrays(), _file(trace, (10, target)), 2)
    assert plan.pf_starts[1] == 1 and plan.pf_blocks.tolist() == [target]
    batch, reference = _both_engines(
        trace, [PrefetchRequest(trigger_instr_id=10, address=target << 6)])
    assert batch == reference


def test_batch_without_kernel_falls_back_bit_identically(monkeypatch):
    """No C compiler (or REPRO_NO_SIMKERNEL=1) must only cost speed —
    and the downgrade must be visible."""
    trace = _trace("cc-5")
    requests = _requests("cc-5", "nextline")
    reference = simulate(trace, requests, default_hierarchy(), "nextline",
                         engine="reference")
    monkeypatch.setattr(batch_module, "_load_replay_kernel", lambda: None)
    sim = Simulator(default_hierarchy(), engine="batch")
    with pytest.warns(EngineFallbackWarning, match="kernel unavailable"):
        batch = sim.run(trace, requests, "nextline")
    assert sim.engine_used == "reference"
    assert batch == reference


def test_no_simkernel_env_falls_back_visibly():
    """REPRO_NO_SIMKERNEL=1 disables the kernel for the whole process."""
    import os
    import subprocess
    import sys

    code = (
        "import warnings\n"
        "from repro.errors import EngineFallbackWarning\n"
        "from repro.harness.runner import default_hierarchy\n"
        "from repro.sim.fast_engine.ckernel import load_kernel\n"
        "from repro.sim.simulator import Simulator\n"
        "from repro.traces.workloads import make_trace\n"
        "assert load_kernel() is None\n"
        "trace = make_trace('cc-5', 300, seed=1)\n"
        "ref = Simulator(default_hierarchy(), engine='reference')\n"
        "expected = ref.run(trace, (), 'none')\n"
        "sim = Simulator(default_hierarchy())\n"
        "with warnings.catch_warnings(record=True) as caught:\n"
        "    warnings.simplefilter('always')\n"
        "    assert sim.run(trace, (), 'none') == expected\n"
        "assert sim.engine_used == 'reference'\n"
        "assert any(isinstance(w.message, EngineFallbackWarning)\n"
        "           for w in caught)\n")
    env = dict(os.environ, REPRO_NO_SIMKERNEL="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_prepopulated_state_falls_back_bit_identically():
    """The kernel starts cold; a simulator with resident lines runs the
    reference loop on that state instead."""
    trace = _trace("cc-5")
    requests = _requests("cc-5", "nextline")
    warm_block = trace.arrays().blocks[7].item()

    reference = Simulator(default_hierarchy(), engine="reference")
    reference.llc.insert(warm_block, prefetched=True)
    expected = reference.run(trace, requests, "nextline")

    sim = Simulator(default_hierarchy(), engine="batch")
    sim.llc.insert(warm_block, prefetched=True)
    with pytest.warns(EngineFallbackWarning, match="pre-populated"):
        assert sim.run(trace, requests, "nextline") == expected
    assert sim.engine_used == "reference"
