"""The columnar prefetch file: generation, conversion and replay.

:func:`~repro.prefetchers.base.generate_prefetches` flattens each
chunk's per-access lists once and applies the budget in one vectorised
pass; the replay plan then drops invalid records and trims each
trigger id in another.  These tests hold both passes to the per-access
loops they replaced:

- generation against a copy of the old per-record driver, on scripted
  prefetchers that return empty rows, repeated blocks (also at
  different byte offsets), negative addresses and over-budget rows,
  across budgets, chunk sizes and series windows;
- replay of a file against its request-list round trip, on both
  loops, and against numbers pinned from the old ``by_trigger``
  replay on a trace with duplicate and regressing instruction ids.
"""

from __future__ import annotations

import contextlib
import warnings
from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, EngineFallbackWarning, PrefetchFileError
from repro.obs import MemorySink, Observability, SeriesCollector, Tracer
from repro.prefetchers import NextLinePrefetcher
from repro.prefetchers.base import (GEN_PREFETCHES, Prefetcher,
                                    generate_prefetches)
from repro.sim.cache import CacheConfig
from repro.sim.dram import DramConfig
from repro.sim.fast_engine.planner import plan_replay
from repro.sim.simulator import HierarchyConfig, simulate
from repro.types import MemoryAccess, PrefetchFile, PrefetchRequest, Trace

from tests.helpers import reference_loop

#: The simulator's two replay loops; see :func:`_on`.
LOOPS = ("reference", "batch")


def _on(loop):
    """The context a replay on ``loop`` runs in."""
    if loop == "reference":
        return reference_loop()
    return contextlib.nullcontext()


_BASE = 1 << 20


def _oracle_generate(prefetcher, trace, budget, chunk,
                     recorder=None) -> List[PrefetchRequest]:
    """The per-record driver ``generate_prefetches`` replaced."""
    if recorder is not None:
        prefetcher.series_arm()
    window = recorder.window if recorder is not None else 0
    arrays = trace.arrays()
    instr_ids = arrays.instr_ids.tolist()
    n = len(instr_ids)
    requests: List[PrefetchRequest] = []
    start = 0
    while start < n:
        end = min(start + chunk, n)
        if window:
            end = min(end, (start // window + 1) * window)
        per_access = prefetcher.process_batch(
            arrays.addresses[start:end], arrays.pcs[start:end],
            arrays.instr_ids[start:end])
        for offset, addresses in enumerate(per_access):
            if not addresses:
                continue
            trigger = instr_ids[start + offset]
            seen = set()
            for address in addresses:
                block = address >> 6
                if block in seen:
                    continue
                seen.add(block)
                requests.append(PrefetchRequest(
                    trigger_instr_id=trigger, address=address))
                if len(seen) >= budget:
                    break
        if window and (end % window == 0 or end == n):
            cumulative = {GEN_PREFETCHES: len(requests)}
            gauges: dict = {}
            prefetcher.series_sample(cumulative, gauges)
            recorder.sample(end, cumulative=cumulative, gauges=gauges)
        start = end
    return requests


class _Scripted(Prefetcher):
    """Returns a fixed list per access, in program order."""

    name = "scripted"

    def __init__(self, rows):
        self.rows = rows
        self.seen = 0

    def process(self, access: MemoryAccess) -> List[int]:
        row = self.rows[self.seen]
        self.seen += 1
        return list(row)


def _trace(ids, blocks, name="t"):
    return Trace.from_accesses(name, [
        MemoryAccess(instr_id=i, pc=0x40, address=b << 6)
        for i, b in zip(ids, blocks)], total_instructions=max(ids) + 1)


@st.composite
def scripted_runs(draw):
    """A trace plus one scripted address list per access."""
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        gaps = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
        ids = [sum(gaps[:k + 1]) for k in range(n)]
    else:
        # Duplicate and regressing ids.
        ids = draw(st.lists(st.integers(1, 3 * n), min_size=n, max_size=n))
    blocks = draw(st.lists(st.integers(_BASE, _BASE + 15),
                           min_size=n, max_size=n))
    # A small block pool makes repeats common; byte offsets put the
    # same block at different addresses; negative addresses are
    # corrupt records generation must pass through.
    address = st.tuples(st.integers(_BASE, _BASE + 7),
                        st.integers(0, 63)).map(lambda bo: (bo[0] << 6) | bo[1])
    if draw(st.booleans()):
        address = st.one_of(address,
                             st.integers(1, 1 << 12).map(lambda a: -a))
    rows = draw(st.lists(st.lists(address, max_size=7),
                         min_size=n, max_size=n))
    return _trace(ids, blocks), rows


def _series(collector):
    return [r for r in collector.snapshot() if r["name"] == GEN_PREFETCHES]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(run=scripted_runs())
def test_generation_matches_per_record_oracle(run):
    trace, rows = run
    for budget in (1, 2, 3, 4):
        for chunk in (1, 7, len(trace)):
            for window in (0, 3):
                collectors = [SeriesCollector(window=window)
                              for _ in range(2)] if window else [None, None]
                recorders = [c.recorder(component="generation")
                             if c is not None else None for c in collectors]
                expected = _oracle_generate(_Scripted(rows), trace, budget,
                                            chunk, recorders[0])
                pfile = generate_prefetches(_Scripted(rows), trace,
                                            budget=budget, chunk=chunk,
                                            recorder=recorders[1])
                assert list(pfile) == expected, (budget, chunk, window)
                assert pfile == expected and len(pfile) == len(expected)
                if window:
                    assert _series(collectors[1]) == _series(collectors[0])
                    assert _series(collectors[1])


@st.composite
def hierarchies(draw):
    def level(name, latency):
        return CacheConfig(name=name, sets=draw(st.sampled_from((1, 2, 4))),
                           ways=draw(st.integers(1, 4)), latency=latency)

    return HierarchyConfig(
        l1d=level("L1D", 5), l2=level("L2", 10), llc=level("LLC", 20),
        dram=DramConfig(ranks=1, banks=draw(st.integers(1, 4)),
                        base_latency=draw(st.integers(20, 120)),
                        bank_occupancy=draw(st.integers(1, 16)),
                        read_queue_size=draw(st.integers(1, 6))),
        max_prefetches_per_access=draw(st.integers(1, 4)))


def _simulate_quietly(trace, prefetches, config, loop):
    """Replay on ``loop``; a non-monotone trace's kernel fallback is
    expected."""
    with _on(loop), warnings.catch_warnings():
        warnings.simplefilter("ignore", EngineFallbackWarning)
        return simulate(trace, prefetches, config, "t")


@settings(max_examples=80, deadline=None, derandomize=True)
@given(run=scripted_runs(), config=hierarchies(),
       budget=st.integers(1, 4))
def test_replay_from_requests_round_trip(run, config, budget):
    trace, rows = run
    pfile = generate_prefetches(_Scripted(rows), trace, budget=budget)
    rebuilt = PrefetchFile.from_requests(trace, list(pfile))
    if trace.arrays().monotone():
        assert rebuilt == pfile
    results = {loop: _simulate_quietly(trace, pfile, config, loop)
               for loop in LOOPS}
    assert results["batch"] == results["reference"]
    for loop in LOOPS:
        assert _simulate_quietly(trace, rebuilt, config,
                                 loop) == results[loop]


def _by_trigger_schedule(trace, requests, max_per_access):
    """The per-access block lists of the ``by_trigger`` dict replay."""
    by_trigger = {}
    for pf in requests:
        if pf.address < 0:
            continue
        blocks = by_trigger.setdefault(pf.trigger_instr_id, [])
        if len(blocks) < max_per_access:
            blocks.append(pf.address >> 6)
    return [by_trigger.get(acc.instr_id, []) for acc in trace]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(run=scripted_runs(), budget=st.integers(1, 4),
       max_per_access=st.integers(1, 4), stray=st.integers(0, 200))
def test_replay_plan_matches_by_trigger_oracle(run, budget, max_per_access,
                                               stray):
    trace, rows = run
    pfile = generate_prefetches(_Scripted(rows), trace, budget=budget)
    # A hand-made list: the file's records reversed, plus one whose
    # trigger may name no trace instruction.
    requests = list(pfile)[::-1] + [PrefetchRequest(stray, 7 << 6)]
    for prefetches in (pfile, requests):
        converted = PrefetchFile.for_trace(trace, prefetches)
        plan = plan_replay(trace.arrays(), converted, max_per_access)
        starts, blocks = plan.pf_starts.tolist(), plan.pf_blocks.tolist()
        assert [blocks[starts[i]:starts[i + 1]] for i in range(len(trace))] \
            == _by_trigger_schedule(trace, prefetches, max_per_access)
        assert len(plan.invalid) == sum(r.address < 0 for r in converted)


# -- a trace with duplicate and regressing ids, pinned ------------------------

_DUP_IDS = [10, 20, 20, 15, 30, 40, 40, 50, 45, 60, 60, 60, 70, 80, 75, 90]
_DUP_BLOCKS = [_BASE + k for k in (0, 3, 1, 9, 2, 4, 1, 6,
                                   5, 12, 8, 7, 3, 10, 11, 12)]
_DUP_ROWS = [
    [(_BASE + 1) << 6, (_BASE + 1) << 6, (_BASE + 2) << 6, (_BASE + 3) << 6],
    [-320, (_BASE + 4) << 6, ((_BASE + 4) << 6) + 8],
    [((_BASE + 5) << 6) + 8, (_BASE + 5) << 6, (_BASE + 6) << 6],
    [],
    [(_BASE + 7) << 6],
    [(_BASE + 8) << 6, (_BASE + 9) << 6, (_BASE + 10) << 6],
    [(_BASE + 11) << 6, -1, (_BASE + 12) << 6],
    [],
    [(_BASE + 13) << 6, (_BASE + 13) << 6],
    [(_BASE + 14) << 6],
    [(_BASE + 15) << 6, (_BASE + 16) << 6],
    [-64, -128, (_BASE + 17) << 6],
    [(_BASE + 18) << 6, (_BASE + 19) << 6, (_BASE + 20) << 6,
     (_BASE + 21) << 6],
    [],
    [(_BASE + 22) << 6],
    [(_BASE + 2) << 6, (_BASE + 3) << 6],
]

#: (prefetcher, generation budget, replay budget) -> (records, cycles,
#: pf_issued, pf_useful, pf_late, llc_misses, pf_dropped), measured
#: with the ``by_trigger`` dict replay this plan replaced.
DUP_PINNED = {
    ("scripted", 2, 2): (22, 345.0, 13, 6, 6, 14, 14.0),
    ("scripted", 2, 3): (22, 348.0, 16, 8, 8, 14, 18.0),
    ("scripted", 3, 2): (27, 345.0, 13, 6, 6, 14, 14.0),
    ("scripted", 3, 3): (27, 362.0, 18, 9, 9, 14, 18.0),
    ("nextline", 2, 2): (32, 285.0, 11, 9, 9, 14, 21.0),
    ("nextline", 2, 3): (32, 285.0, 11, 9, 9, 14, 28.0),
    ("nextline", 3, 2): (48, 285.0, 11, 9, 9, 14, 21.0),
    ("nextline", 3, 3): (48, 302.0, 14, 11, 11, 14, 34.0),
}


def _tiny_hierarchy(max_prefetches_per_access):
    def level(name, sets, ways, latency):
        return CacheConfig(name=name, sets=sets, ways=ways, latency=latency)

    return HierarchyConfig(
        l1d=level("L1D", 1, 2, 5), l2=level("L2", 1, 2, 10),
        llc=level("LLC", 2, 4, 20),
        dram=DramConfig(ranks=1, banks=2, base_latency=60,
                        bank_occupancy=8, read_queue_size=4),
        max_prefetches_per_access=max_prefetches_per_access)


@pytest.mark.parametrize("key", sorted(DUP_PINNED))
def test_replay_duplicate_ids_pinned(key):
    name, budget, max_pf = key
    trace = _trace(_DUP_IDS, _DUP_BLOCKS, name="dup")
    prefetcher = (_Scripted(_DUP_ROWS) if name == "scripted"
                  else NextLinePrefetcher(degree=3))
    pfile = generate_prefetches(prefetcher, trace, budget=budget)
    for loop in LOOPS:
        r = _simulate_quietly(trace, pfile, _tiny_hierarchy(max_pf), loop)
        assert (len(pfile), r.cycles, r.pf_issued, r.pf_useful, r.pf_late,
                r.llc_misses, r.extra.get("pf_dropped", 0.0)) \
            == DUP_PINNED[key], loop


# -- invalid records ----------------------------------------------------------


def _seq_trace(n=32):
    return _trace([(k + 1) * 10 for k in range(n)],
                  [_BASE + k for k in range(n)])


@pytest.mark.parametrize("loop", LOOPS)
def test_replay_negative_addresses_are_dropped_and_counted(loop):
    trace = _seq_trace()
    requests = [PrefetchRequest(trace[0].instr_id, -320),
                PrefetchRequest(trace[0].instr_id, (_BASE + 40) << 6)]
    with _on(loop):
        result = simulate(trace, requests)
        # The invalid record does not use up its trigger's budget.
        alone = simulate(trace, requests[1:])
    assert result.pf_issued == 1
    assert result.extra["pf_dropped"] == 1.0
    assert result.cycles == alone.cycles


def test_replay_traces_invalid_drops_in_file_order():
    trace = _seq_trace()
    requests = [PrefetchRequest(20, -64), PrefetchRequest(20, 5 << 6),
                PrefetchRequest(30, -128), PrefetchRequest(40, -192)]
    sink = MemorySink()
    with pytest.warns(EngineFallbackWarning, match="event tracing"):
        result = simulate(trace, requests,
                          obs=Observability(tracer=Tracer(sink)))
    invalid = [(e["trigger"], e["block"]) for e in sink.events
               if e["event"] == "pf.dropped" and e["reason"] == "invalid"]
    assert invalid == [(20, -64), (30, -128), (40, -192)]
    assert result.extra["pf_dropped"] == 3.0


class _Huge(Prefetcher):
    name = "huge"

    def process(self, access):
        return [1 << 64] if access.instr_id == 30 else []


def test_out_of_range_address_raises_with_chunk_context():
    trace = _seq_trace()
    with pytest.raises(PrefetchFileError, match=r"huge .*\[0, 7\)"):
        generate_prefetches(_Huge(), trace, chunk=7)
    with pytest.raises(PrefetchFileError, match="int64"):
        PrefetchFile.from_requests(trace, [PrefetchRequest(10, 1 << 64)])


class _Short(Prefetcher):
    name = "short"

    def process_batch(self, addresses, pcs, instr_ids):
        return [[] for _ in range(len(addresses) - 1)]


def test_malformed_batch_result_raises_with_chunk_context():
    with pytest.raises(PrefetchFileError, match=r"short .*\[0, 5\).*4 "):
        generate_prefetches(_Short(), _seq_trace(), chunk=5)


def test_bad_budget_rejected():
    with pytest.raises(ConfigError):
        generate_prefetches(NextLinePrefetcher(), _seq_trace(), budget=0)


# -- layout -------------------------------------------------------------------


def test_from_requests_layout():
    trace = _seq_trace(6)
    pfile = PrefetchFile.from_requests(trace, [
        PrefetchRequest(40, 7 << 6), PrefetchRequest(20, 5 << 6),
        PrefetchRequest(25, 9 << 6),          # names no trace instruction
        PrefetchRequest(40, 3 << 6), PrefetchRequest(20, -64)])
    assert pfile.offsets.tolist() == [0, 0, 2, 2, 4, 4, 4]
    assert pfile.instr_ids is trace.arrays().instr_ids
    assert list(pfile) == [
        PrefetchRequest(20, 5 << 6), PrefetchRequest(20, -64),
        PrefetchRequest(40, 7 << 6), PrefetchRequest(40, 3 << 6)]
    assert PrefetchFile.for_trace(trace, pfile) is pfile
    assert not PrefetchFile.from_requests(trace, ())
    # A duplicated id's records go to its first access.
    dup = _trace([20, 15, 20], [_BASE, _BASE + 1, _BASE + 2])
    pfile = PrefetchFile.from_requests(dup, [
        PrefetchRequest(15, 1 << 6), PrefetchRequest(20, 2 << 6)])
    assert pfile.offsets.tolist() == [0, 1, 2, 2]
    assert list(pfile) == [PrefetchRequest(20, 2 << 6),
                           PrefetchRequest(15, 1 << 6)]


def test_generated_file_is_its_own_schedule():
    """Within budget on monotone ids, the plan reuses the offsets."""
    trace = _seq_trace()
    pfile = generate_prefetches(NextLinePrefetcher(degree=2), trace)
    plan = plan_replay(trace.arrays(), pfile, 2)
    assert plan.pf_starts is pfile.offsets
    assert plan.pf_blocks.tolist() == (pfile.addresses >> 6).tolist()


def test_plan_rejects_a_file_of_another_length():
    trace = _seq_trace()
    pfile = generate_prefetches(NextLinePrefetcher(), _seq_trace(8))
    with pytest.raises(PrefetchFileError, match="covers 8 accesses"):
        plan_replay(trace.arrays(), pfile, 2)
