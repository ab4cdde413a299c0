"""Adversarial differential tests: the batch kernel vs the reference loop.

``tests/test_replay_parity.py`` pins bit-identity on realistic
workloads; this suite generates the inputs those workloads rarely
reach: 1- to 8-set caches with 1-4 ways, DRAM read queues of 1-8 and
issue budgets of 1-4, traces whose blocks collide in one set, prefetch
files with duplicate triggers, triggers missing from the trace or past
its end, prefetches to blocks the trace has not touched yet, and
instruction ids up to ``MAX_KERNEL_INSTR_ID``.  Every example replays
on both loops (the reference side under
:func:`tests.helpers.reference_loop`) with series collection off and
on; the :class:`~repro.sim.metrics.SimResult` (and the series) must
match, and the kernel must actually have run.
"""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.obs import Observability, SeriesCollector
from repro.sim.cache import CacheConfig
from repro.sim.cpu import CoreConfig
from repro.sim.dram import DramConfig
from repro.sim.fast_engine.ckernel import load_kernel
from repro.sim.fast_engine.planner import MAX_KERNEL_INSTR_ID
from repro.sim.simulator import HierarchyConfig, Simulator
from repro.types import MemoryAccess, PrefetchRequest, Trace

from tests.helpers import reference_loop

pytestmark = pytest.mark.skipif(
    load_kernel() is None, reason="the replay kernel is unavailable")

_BASE_BLOCK = 1 << 20


@st.composite
def hierarchies(draw):
    def level(name: str, latency: int) -> CacheConfig:
        return CacheConfig(name=name,
                           sets=draw(st.sampled_from((1, 2, 4, 8))),
                           ways=draw(st.integers(1, 4)), latency=latency)

    return HierarchyConfig(
        l1d=level("L1D", 5), l2=level("L2", 10), llc=level("LLC", 20),
        dram=DramConfig(ranks=draw(st.integers(1, 2)),
                        banks=draw(st.integers(1, 4)),
                        base_latency=draw(st.integers(20, 150)),
                        bank_occupancy=draw(st.integers(1, 24)),
                        read_queue_size=draw(st.integers(1, 8))),
        core=CoreConfig(rob_size=draw(st.sampled_from((4, 32, 256))),
                        mshrs=draw(st.integers(1, 4))),
        max_prefetches_per_access=draw(st.integers(1, 4)))


@st.composite
def replays(draw):
    """A (trace, prefetch file) pair that stresses the replay kernel."""
    # A stride of 64 puts every pool block in one set at every level.
    stride = draw(st.sampled_from((1, 8, 64)))
    pool = [_BASE_BLOCK + stride * k for k in range(draw(st.integers(1, 12)))]
    n = draw(st.integers(1, 80))
    gaps = draw(st.lists(st.integers(1, 40), min_size=n, max_size=n))
    total = sum(gaps)
    # Either small ids, or ids ending exactly at the kernel's bound.
    first = draw(st.sampled_from((0, MAX_KERNEL_INSTR_ID - total)))
    ids = []
    cursor = first
    for gap in gaps:
        cursor += gap
        ids.append(cursor)
    blocks = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    trace = Trace.from_accesses("t", [
        MemoryAccess(instr_id=i, pc=0x40, address=b << 6)
        for i, b in zip(ids, blocks)], total_instructions=cursor + 1)

    present = st.sampled_from(ids)  # repeats give duplicate triggers
    missing = st.sampled_from([i + 1 for i, gap in zip(ids[:-1], gaps[1:])
                               if gap > 1] or [first])
    past_end = st.integers(cursor + 1, cursor + 50)
    # Targets: pool blocks (some first-touched only after the trigger)
    # and never-demanded blocks that still collide in the same sets.
    target = st.one_of(st.sampled_from(pool),
                       st.integers(0, 15).map(
                           lambda k: _BASE_BLOCK + stride * (100 + k)))
    records = draw(st.lists(
        st.tuples(st.one_of(present, present, missing, past_end), target,
                  st.integers(0, 63)),
        max_size=3 * n))
    requests = [PrefetchRequest(trigger_instr_id=trigger,
                                address=(block << 6) | offset)
                for trigger, block, offset in records]
    return trace, requests


def _replay(config, trace, requests, series_window):
    obs = None
    if series_window:
        obs = Observability(series=SeriesCollector(window=series_window))
    sim = Simulator(config, obs=obs)
    result = sim.run(trace, requests, "t")
    series = obs.series.snapshot() if obs is not None else None
    return sim.engine_used, result, series


def _tied_fills():
    """Two prefetches that complete on the same cycle into a one-line
    LLC: heap pop order decides which survives to the later demand."""
    level = [CacheConfig(name=name, sets=1, ways=1, latency=latency)
             for name, latency in (("L1D", 5), ("L2", 10), ("LLC", 20))]
    config = HierarchyConfig(
        l1d=level[0], l2=level[1], llc=level[2],
        dram=DramConfig(ranks=1, banks=4, base_latency=50,
                        bank_occupancy=4, read_queue_size=8))
    # Distinct banks (block % 4) for the trigger's demand and both fills.
    trigger, first, second = 1003, 2000, 2001
    trace = Trace.from_accesses("t", [
        MemoryAccess(instr_id=10, pc=0x40, address=trigger << 6),
        MemoryAccess(instr_id=4000, pc=0x40, address=first << 6)],
        total_instructions=4001)
    requests = [PrefetchRequest(trigger_instr_id=10, address=second << 6),
                PrefetchRequest(trigger_instr_id=10, address=first << 6)]
    return {"config": config, "replay": (trace, requests),
            "series_window": 0}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(config=hierarchies(), replay=replays(),
       series_window=st.sampled_from((0, 1, 7, 64)))
@example(**_tied_fills())
def test_batch_matches_reference(config, replay, series_window):
    trace, requests = replay
    engine, batch, batch_series = _replay(config, trace, requests,
                                          series_window)
    with reference_loop():
        _, reference, reference_series = _replay(config, trace, requests,
                                                 series_window)
    assert engine == "batch"
    assert batch == reference
    assert batch_series == reference_series
