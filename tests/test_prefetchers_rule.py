"""Tests for the rule-based baselines: NL, BO, SPP, SISB."""

import pytest

from repro.errors import ConfigError
from repro.prefetchers import (
    BestOffsetConfig,
    BestOffsetPrefetcher,
    NextLinePrefetcher,
    SISBConfig,
    SISBPrefetcher,
    SPPConfig,
    SPPPrefetcher,
    generate_prefetches,
)
from repro.prefetchers.spp import MAX_SIGNATURE_TABLE_SIZE, advance_signature
from repro.types import MemoryAccess, compose_address

from tests.helpers import build_trace, seq_addresses


# -- NextLine ------------------------------------------------------------------

def test_nextline_prefetches_following_blocks():
    pf = NextLinePrefetcher(degree=2)
    acc = MemoryAccess(1, 0x4, 1000 << 6)
    assert pf.process(acc) == [(1001) << 6, (1002) << 6]


def test_nextline_degree_validation():
    with pytest.raises(ConfigError):
        NextLinePrefetcher(degree=0)


def test_nextline_covers_sequential_stream():
    trace = build_trace(seq_addresses(200))
    requests = generate_prefetches(NextLinePrefetcher(degree=1), trace)
    predicted = {r.block for r in requests}
    actual = {a.block for a in trace}
    assert len(predicted & actual) > 190


# -- Best-Offset ----------------------------------------------------------------

def test_bo_learns_constant_stride():
    pf = BestOffsetPrefetcher(BestOffsetConfig(score_max=8))
    # Stride-6 stream long enough to finish a learning phase (6 is in
    # Michaud's smooth-number offset list; 7 would not be).
    for i in range(2000):
        pf.process(MemoryAccess(i + 1, 0x4, (1000 + 6 * i) << 6))
    assert pf.best_offset == 6


def test_bo_cannot_learn_non_smooth_stride():
    # Offsets with prime factors > 5 are absent from the candidate
    # list, so a stride-7 stream leaves BO at its default offset.
    pf = BestOffsetPrefetcher(BestOffsetConfig(score_max=8))
    for i in range(2000):
        pf.process(MemoryAccess(i + 1, 0x4, (1000 + 7 * i) << 6))
    assert pf.best_offset not in (7, -7)


def test_bo_prefetch_addresses_use_best_offset():
    pf = BestOffsetPrefetcher()
    pf.best_offset = 3
    # Michaud's BO issues a single prefetch at X + D.
    assert pf.process(MemoryAccess(1, 0x4, 100 << 6)) == [(103) << 6]


def test_bo_degree_two_walks_offset_twice():
    pf = BestOffsetPrefetcher(BestOffsetConfig(degree=2))
    pf.best_offset = 3
    addresses = pf.process(MemoryAccess(1, 0x4, 100 << 6))
    assert addresses == [(103) << 6, (106) << 6]


def test_bo_negative_offsets_never_below_zero():
    pf = BestOffsetPrefetcher()
    pf.best_offset = -200
    assert pf.process(MemoryAccess(1, 0x4, 100 << 6)) == []


def test_bo_offsets_are_smooth_numbers():
    cfg = BestOffsetConfig()
    for offset in cfg.offsets:
        n = abs(offset)
        for p in (2, 3, 5):
            while n % p == 0:
                n //= p
        assert n == 1


def test_bo_config_validation():
    with pytest.raises(ConfigError):
        BestOffsetConfig(offsets=())
    with pytest.raises(ConfigError):
        BestOffsetConfig(degree=0)


# -- SPP ------------------------------------------------------------------------

def test_spp_signature_advance_changes_and_bounded():
    sig = 0
    seen = set()
    for delta in (1, 2, 3, 1, 2, 3):
        sig = advance_signature(sig, delta)
        assert 0 <= sig < (1 << 12)
        seen.add(sig)
    assert len(seen) > 1


def test_spp_learns_page_pattern():
    pf = SPPPrefetcher()
    hits = 0
    instr = 0
    for page in range(100, 200):
        offsets = list(range(0, 60, 3))  # delta-3 walk
        predictions_this_page = []
        for offset in offsets:
            instr += 10
            acc = MemoryAccess(instr, 0x4, compose_address(page, offset))
            predictions_this_page += pf.process(acc)
        # After warm-up pages, the +3 successors must be predicted.
        if page > 110:
            predicted_offsets = {(a >> 6) & 63 for a in predictions_this_page}
            hits += len(predicted_offsets & set(offsets))
    assert hits > 100


def test_spp_quiet_without_confidence():
    pf = SPPPrefetcher()
    # A brand-new page with a never-seen signature: no prefetch.
    acc1 = MemoryAccess(1, 0x4, compose_address(5, 0))
    acc2 = MemoryAccess(2, 0x4, compose_address(5, 50))
    assert pf.process(acc1) == []
    assert pf.process(acc2) == []


def test_spp_lookahead_bounded_by_degree():
    pf = SPPPrefetcher(SPPConfig(max_degree=2, lookahead_depth=8))
    instr = 0
    for page in range(100, 140):
        for offset in range(0, 64, 2):
            instr += 10
            out = pf.process(MemoryAccess(instr, 0x4,
                                          compose_address(page, offset)))
            assert len(out) <= 2


def test_spp_prefetches_stay_in_page():
    pf = SPPPrefetcher()
    instr = 0
    for page in range(100, 140):
        for offset in range(0, 64, 9):
            instr += 10
            for address in pf.process(MemoryAccess(
                    instr, 0x4, compose_address(page, offset))):
                assert (address >> 12) == page


def test_spp_config_validation():
    # Table sizes and counter limits below 1 would fail on the first
    # access (or saturate on every record); reject them up front.
    for overrides in (dict(prefetch_threshold=0.0), dict(max_degree=0),
                      dict(signature_table_size=0),
                      dict(signature_table_size=-1),
                      dict(signature_table_size=MAX_SIGNATURE_TABLE_SIZE + 1),
                      dict(pattern_table_size=0), dict(max_counter=0),
                      dict(max_counter=-3)):
        with pytest.raises(ConfigError):
            SPPConfig(**overrides)


def test_spp_pattern_table_rows_capped_at_signature_count():
    # Only 4,096 signatures exist, so a larger table allocates no more
    # rows than that, and the largest Signature Table is accepted.
    pf = SPPPrefetcher(SPPConfig(
        pattern_table_size=10 ** 9,
        signature_table_size=MAX_SIGNATURE_TABLE_SIZE))
    assert len(pf._pt_stamp) == 4096
    assert pf.process(MemoryAccess(1, 0x4, compose_address(5, 0))) == []


# -- SISB -------------------------------------------------------------------------

def test_sisb_replays_recorded_stream():
    pf = SISBPrefetcher(SISBConfig(degree=1))
    import numpy as np

    rng = np.random.default_rng(0)
    sequence = [int(b) << 6 for b in rng.integers(0, 1 << 20, 50)]
    trace = build_trace(sequence * 3)
    requests = generate_prefetches(pf, trace)
    # From the second pass on, every successor is predictable.
    assert len(requests) >= 90
    predicted = {r.block for r in requests}
    assert predicted <= {a >> 6 for a in sequence}


def test_sisb_degree_walks_chain():
    pf = SISBPrefetcher(SISBConfig(degree=3))
    chain = [(100 + i) << 6 for i in range(4)]
    instr = 0
    for _ in range(2):
        for address in chain:
            instr += 10
            pf.process(MemoryAccess(instr, 0x4, address))
    # After recording, the head of the chain predicts the next three.
    out = pf.process(MemoryAccess(instr + 10, 0x4, chain[0]))
    assert [a >> 6 for a in out] == [c >> 6 for c in chain[1:]]


def test_sisb_pc_localized_streams_do_not_mix():
    pf = SISBPrefetcher(SISBConfig(degree=1, pc_localized=True))
    # PC A records 1 -> 2; PC B interleaves 1 -> 9.
    pf.process(MemoryAccess(1, 0xA, 1 << 6))
    pf.process(MemoryAccess(2, 0xB, 1 << 6))
    pf.process(MemoryAccess(3, 0xA, 2 << 6))
    pf.process(MemoryAccess(4, 0xB, 9 << 6))
    out = pf.process(MemoryAccess(5, 0xA, 1 << 6))
    assert out == [2 << 6]


def test_sisb_global_mode_single_stream():
    pf = SISBPrefetcher(SISBConfig(degree=1, pc_localized=False))
    pf.process(MemoryAccess(1, 0xA, 1 << 6))
    pf.process(MemoryAccess(2, 0xB, 2 << 6))
    out = pf.process(MemoryAccess(3, 0xC, 1 << 6))
    assert out == [2 << 6]


def test_sisb_nothing_on_fresh_addresses():
    trace = build_trace(seq_addresses(100))
    # Sequential but never-repeating: successors exist but only for
    # blocks already seen; each block is seen once.
    requests = generate_prefetches(SISBPrefetcher(), trace)
    assert len(requests) == 0


def test_sisb_config_validation():
    with pytest.raises(ConfigError):
        SISBConfig(degree=0)


def test_sisb_quiet_on_cc5_strong_on_temporal_workload():
    """Regression for the 20k-load cc-5 cell: SISB issuing ~nothing
    there is by design, not a bug.

    cc-5 has no temporal-replay component — its delta and interleaved
    streams walk fresh pages (addresses never repeat) and the pointer
    chase revisits a page only during short local runs, whose successor
    after any revisited block is random.  So SISB records chains it can
    never profitably replay: a handful of stray prefetches, none
    useful.  The same prefetcher on a replay-heavy workload must be
    strong, which pins the contrast (paper §5: temporal prefetchers
    have nothing to replay on GAP traces).
    """
    from repro.harness.runner import default_hierarchy
    from repro.sim.simulator import simulate
    from repro.traces.workloads import make_trace

    hierarchy = default_hierarchy()

    cc = make_trace("cc-5", 8000, seed=0)
    cc_reqs = generate_prefetches(SISBPrefetcher(), cc)
    cc_result = simulate(cc, cc_reqs, hierarchy, "sisb")
    assert cc_result.pf_issued < 50  # stray chase revisits only
    accuracy = (cc_result.pf_useful / cc_result.pf_issued
                if cc_result.pf_issued else 0.0)
    assert accuracy < 0.2

    temporal = make_trace("471-omnetpp-s1", 8000, seed=0)
    t_reqs = generate_prefetches(SISBPrefetcher(), temporal)
    t_result = simulate(temporal, t_reqs, hierarchy, "sisb")
    assert t_result.pf_issued > 1000
    assert t_result.pf_useful / t_result.pf_issued > 0.5
