"""Replay-loop parity: the batch kernel must match the reference loop.

The batch driver (``repro.sim.fast_engine.batch``) re-implements the
reference replay loop as a columnar plan executed by a compiled
kernel; the only permitted difference is wall-clock time.  These tests
replay the same (trace, prefetch file) on both loops for every
registered prefetcher across three behaviourally distinct workloads
and require the *entire* :class:`~repro.sim.metrics.SimResult` —
cycles included, to the last float bit — to match, along with the
metrics registry and the windowed series.  The reference side runs
under :func:`tests.helpers.reference_loop`; a parametrized ``engine``
names the loop the candidate side must have run on.
"""

from __future__ import annotations

import warnings

import pytest

from repro.errors import EngineFallbackWarning
from repro.obs import MemorySink, Observability, SeriesCollector, Tracer
from repro.prefetchers.base import generate_prefetches
from repro.sim.fast_engine.ckernel import load_kernel
from repro.sim.simulator import Simulator, simulate
from repro.traces.workloads import make_trace
from repro.harness.runner import PREFETCHER_FACTORIES, default_hierarchy

from tests.helpers import reference_loop

#: Three workloads with distinct pattern mixes: delta/interleaved-heavy,
#: temporal-replay-heavy, and irregular chase-heavy.
PARITY_WORKLOADS = ("cc-5", "471-omnetpp-s1", "605-mcf-s1")
N_ACCESSES = 2500
SEED = 11

#: For the cases that assert the compiled loop ran: a host without the
#: replay kernel has only the reference loop.
needs_kernel = pytest.mark.skipif(
    load_kernel() is None, reason="the replay kernel is unavailable")

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


@needs_kernel
@pytest.mark.parametrize("engine", ("batch",))
@pytest.mark.parametrize("workload", PARITY_WORKLOADS)
@pytest.mark.parametrize("prefetcher", sorted(PREFETCHER_FACTORIES))
def test_engines_bit_identical(workload, prefetcher, engine):
    trace = _trace(workload)
    requests = _requests(workload, prefetcher)
    with reference_loop():
        reference = simulate(trace, requests, default_hierarchy(),
                             prefetcher)
    sim = Simulator(default_hierarchy())
    assert sim.run(trace, requests, prefetcher) == reference
    assert sim.engine_used == engine


@needs_kernel
@pytest.mark.parametrize("engine", ("batch",))
def test_engines_bit_identical_without_prefetches(engine):
    trace = _trace("cc-5")
    with reference_loop():
        reference = simulate(trace, (), default_hierarchy(), "none")
    sim = Simulator(default_hierarchy())
    assert sim.run(trace, (), "none") == reference
    assert sim.engine_used == engine


def test_batch_engine_is_the_default():
    sim = Simulator(default_hierarchy())
    assert sim.engine_used == "batch"


def test_event_tracing_falls_back_to_reference():
    """Building a traced simulator warns nothing; its run picks the
    reference loop, with exactly one warning."""
    obs = Observability(tracer=Tracer(MemorySink()))
    with warnings.catch_warnings():
        warnings.simplefilter("error", EngineFallbackWarning)
        sim = Simulator(default_hierarchy(), obs=obs)
    assert sim.engine_used == "batch"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = sim.run(_trace("cc-5"), (), "none")
    fallbacks = [w for w in caught
                 if issubclass(w.category, EngineFallbackWarning)]
    assert len(fallbacks) == 1
    assert "event tracing" in str(fallbacks[0].message)
    assert sim.engine_used == "reference"
    with reference_loop():
        assert result == simulate(_trace("cc-5"), (), default_hierarchy())


@needs_kernel
def test_armed_faults_keep_the_batch_engine():
    """No fault point fires inside the replay, so chaos runs exercise
    the same kernel production runs do — silently, bit-identically."""
    from repro.resilience.faults import FaultPlan, injected

    trace = _trace("cc-5")
    requests = _requests("cc-5", "nextline")
    with reference_loop():
        reference = simulate(trace, requests, default_hierarchy(),
                             "nextline")
    plan = FaultPlan.parse("prefetcher.access:p=0", seed=3)
    with injected(plan), warnings.catch_warnings():
        warnings.simplefilter("error", EngineFallbackWarning)
        sim = Simulator(default_hierarchy())
        assert sim.run(trace, requests, "nextline") == reference
    assert sim.engine_used == "batch"


@needs_kernel
def test_compatible_requests_warn_nothing():
    """A cold LRU simulator with no event tracing runs the kernel
    without a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", EngineFallbackWarning)
        sim = Simulator(default_hierarchy())
        sim.run(_trace("cc-5"), _requests("cc-5", "nextline"), "nextline")
    assert sim.engine_used == "batch"


@needs_kernel
def test_metrics_observability_parity():
    """Metrics-only observability stays on the kernel and mirrors the
    same counters and DRAM wait histogram as the reference."""
    trace = _trace("471-omnetpp-s1")
    requests = _requests("471-omnetpp-s1", "nextline")

    def run():
        obs = Observability()
        sim = Simulator(default_hierarchy(), obs=obs)
        result = sim.run(trace, requests, "nextline")
        return sim, result, obs.registry.snapshot()

    batch_sim, batch_result, batch_metrics = run()
    with reference_loop():
        ref_sim, ref_result, ref_metrics = run()
    assert batch_sim.engine_used == "batch"
    assert ref_sim.engine_used == "reference"
    assert batch_result == ref_result
    assert batch_metrics == ref_metrics


@pytest.mark.parametrize("workload", PARITY_WORKLOADS)
@pytest.mark.parametrize("prefetcher", ("nextline", "spp", "pathfinder"))
def test_series_snapshots_match_reference(workload, prefetcher):
    """Every windowed series — the DRAM queue gauge included — is the
    same whichever loop collected it."""
    trace = _trace(workload)
    requests = _requests(workload, prefetcher)

    def snapshot():
        obs = Observability(series=SeriesCollector(window=256))
        result = simulate(trace, requests, default_hierarchy(), prefetcher,
                          obs=obs)
        return result, obs.series.snapshot()

    batch = snapshot()
    with reference_loop():
        assert batch == snapshot()


# -- edge cases ---------------------------------------------------------------

from repro.types import MemoryAccess, PrefetchRequest, Trace  # noqa: E402


def _both_engines(trace, requests):
    with reference_loop():
        reference = simulate(trace, requests, default_hierarchy(), "t")
    batch = simulate(trace, requests, default_hierarchy(), "t")
    return batch, reference


def test_triggers_missing_from_trace_are_ignored():
    """Prefetch triggers that name no trace instruction are silently
    dropped by both loops (ChampSim semantics)."""
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
# positions (CSR); the batch driver decides whether the kernel may run.
# These tests pin the planner's edge cases and the driver's fallback to
# the reference loop.

import numpy as np  # noqa: E402

from repro.sim.fast_engine import batch as batch_module  # noqa: E402
from repro.sim.fast_engine.batch import MAX_KERNEL_INSTR_ID  # noqa: E402
from repro.sim.fast_engine.planner import plan_replay  # noqa: E402
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
    """Replay expecting a visible run-time fallback."""
    sim = Simulator(default_hierarchy())
    with pytest.warns(EngineFallbackWarning, match=match):
        result = sim.run(trace, requests, "t")
    assert sim.engine_used == "reference"
    return result


def test_planner_empty_trace():
    trace = Trace.from_accesses("t", [], total_instructions=0)
    plan = plan_replay(trace, _file(trace), 2)
    assert plan.pf_starts.tolist() == [0] and len(plan.pf_blocks) == 0
    batch, reference = _both_engines(trace, ())
    assert batch == reference


def test_planner_single_access_trace():
    trace = _mini_trace([(10, 1 << 20)])
    plan = plan_replay(trace, _file(trace), 2)
    assert plan.pf_starts.tolist() == [0, 0] and len(plan.pf_blocks) == 0
    # Triggered on its only access: one CSR row holding the block.
    plan = plan_replay(trace, _file(trace, (10, 1 << 21)), 2)
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
    plan = plan_replay(trace, pfile, 2)
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
    access dispatches must be visible to that access on both
    loops."""
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
    # The replay still runs (reference fallback) and stays bit-identical.
    with reference_loop():
        expected = simulate(trace, (), default_hierarchy(), "t")
    assert _falls_back(trace, (), "non-monotone") == expected


def test_planner_rejects_oversized_instruction_ids():
    trace = _mini_trace([(10, 1 << 20),
                         (MAX_KERNEL_INSTR_ID + 7, (1 << 20) + 1)])
    with reference_loop():
        expected = simulate(trace, (), default_hierarchy(), "t")
    assert _falls_back(trace, (), "bound") == expected


def test_negative_blocks_fall_back_bit_identically():
    """C ``%`` differs from Python's on negatives, so a trace with a
    negative address replays on the reference loop, visibly."""
    trace = _mini_trace([(10, 1 << 20), (20, -5), (30, (1 << 20) + 1)])
    requests = [PrefetchRequest(trigger_instr_id=10, address=-5 << 6)]
    with reference_loop():
        expected = simulate(trace, requests, default_hierarchy(), "t")
    sim = Simulator(default_hierarchy())
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = sim.run(trace, requests, "t")
    fallbacks = [w for w in caught
                 if issubclass(w.category, EngineFallbackWarning)]
    assert len(fallbacks) == 1
    assert "negative block numbers" in str(fallbacks[0].message)
    assert sim.engine_used == "reference"
    assert result == expected


def test_first_touch_prefetch_targets_stay_coupled():
    """A first-touch block that is also the target of an earlier
    trigger must see the in-flight prefetch when it is demanded."""
    ids_blocks = [((k + 1) * 10, (1 << 20) + k) for k in range(10)]
    target = (1 << 20) + 5  # first-touched at position 5, prefetched at 0
    trace = _mini_trace(ids_blocks)
    plan = plan_replay(trace, _file(trace, (10, target)), 2)
    assert plan.pf_starts[1] == 1 and plan.pf_blocks.tolist() == [target]
    batch, reference = _both_engines(
        trace, [PrefetchRequest(trigger_instr_id=10, address=target << 6)])
    assert batch == reference


def test_batch_without_kernel_falls_back_bit_identically(monkeypatch):
    """No C compiler (or REPRO_NO_CKERNEL=1) must only cost speed —
    and the downgrade must be visible."""
    trace = _trace("cc-5")
    requests = _requests("cc-5", "nextline")
    expected = simulate(trace, requests, default_hierarchy(), "nextline")
    monkeypatch.setattr(batch_module, "load_kernel", lambda: None)
    sim = Simulator(default_hierarchy())
    with pytest.warns(EngineFallbackWarning, match="kernel unavailable"):
        batch = sim.run(trace, requests, "nextline")
    assert sim.engine_used == "reference"
    assert batch == expected


def test_no_simkernel_env_falls_back_visibly():
    """REPRO_NO_CKERNEL=1 disables the replay kernel for the whole
    process, as it does the one-tick library."""
    import json
    import os
    import subprocess
    import sys

    from repro.sim.metrics import SimResult

    code = (
        "import dataclasses, json, warnings\n"
        "from repro.errors import EngineFallbackWarning\n"
        "from repro.harness.runner import default_hierarchy\n"
        "from repro.sim.fast_engine.ckernel import load_kernel\n"
        "from repro.sim.simulator import Simulator\n"
        "from repro.snn.ckernel import load_kernel as load_tick_kernel\n"
        "from repro.traces.workloads import make_trace\n"
        "assert load_kernel() is None and load_tick_kernel() is None\n"
        "trace = make_trace('cc-5', 300, seed=1)\n"
        "sim = Simulator(default_hierarchy())\n"
        "with warnings.catch_warnings(record=True) as caught:\n"
        "    warnings.simplefilter('always')\n"
        "    result = sim.run(trace, (), 'none')\n"
        "assert sim.engine_used == 'reference'\n"
        "assert any(isinstance(w.message, EngineFallbackWarning)\n"
        "           for w in caught)\n"
        "print(json.dumps(dataclasses.asdict(result)))\n")
    env = dict(os.environ, REPRO_NO_CKERNEL="1")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    # The kernel in this process and the reference loop in that one
    # agree to the last bit.
    expected = simulate(make_trace("cc-5", 300, seed=1), (),
                        default_hierarchy(), "none")
    assert SimResult(**json.loads(proc.stdout)) == expected


def test_prepopulated_state_falls_back_bit_identically():
    """The kernel starts cold; a simulator with resident lines runs the
    reference loop on that state instead."""
    trace = _trace("cc-5")
    requests = _requests("cc-5", "nextline")
    warm_block = trace.blocks[7].item()

    reference = Simulator(default_hierarchy())
    reference.llc.insert(warm_block, prefetched=True)
    with reference_loop():
        expected = reference.run(trace, requests, "nextline")

    sim = Simulator(default_hierarchy())
    sim.llc.insert(warm_block, prefetched=True)
    with pytest.warns(EngineFallbackWarning, match="pre-populated"):
        assert sim.run(trace, requests, "nextline") == expected
    assert sim.engine_used == "reference"
