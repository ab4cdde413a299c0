"""Tests for the trace-statistics and diagnostics tooling."""

from collections import Counter

import numpy as np
import pytest

from repro.analysis import (
    DeltaStatistics,
    delta_histogram,
    delta_statistics,
    diagnose,
    profile_trace,
    reuse_fraction,
)
from repro.analysis.diagnostics import compare
from repro.errors import ConfigError
from repro.sim.metrics import SimResult
from repro.traces import WORKLOAD_NAMES, make_trace
from repro.types import MAX_DELTA, MemoryAccess, Trace, compose_address

from tests.helpers import build_trace


def _pattern_trace():
    addresses = []
    for page in range(10, 20):
        for offset in (0, 2, 4, 6, 8):
            addresses.append(compose_address(page, offset))
    return build_trace(addresses)


def test_delta_histogram_counts():
    histogram = delta_histogram(_pattern_trace())
    assert histogram == {2: 40}


def test_reuse_fraction_zero_for_fresh_pages():
    assert reuse_fraction(_pattern_trace()) == 0.0


def test_reuse_fraction_with_repeats():
    addresses = [compose_address(1, 0), compose_address(1, 1),
                 compose_address(1, 0)]
    assert reuse_fraction(build_trace(addresses)) == pytest.approx(1 / 3)


def test_reuse_fraction_empty_trace_raises():
    with pytest.raises(ConfigError):
        reuse_fraction(Trace(name="e"))


def test_delta_statistics_windowing():
    stats = delta_statistics(_pattern_trace(), window=25)
    assert stats.window == 25
    assert stats.avg_distinct == pytest.approx(1.0)
    assert stats.avg_deltas > 0


def _reference_windows(trace, window):
    """The per-access loop the column pass replaced: each window's
    nonzero in-range deltas to the previous access of the same
    (pc, page) stream."""
    last_offset = {}
    windows = [[]]
    for index, access in enumerate(trace):
        if index and index % window == 0:
            windows.append([])
        key = (access.pc, access.page)
        previous = last_offset.get(key)
        if previous is not None:
            delta = access.offset - previous
            if delta != 0 and abs(delta) <= MAX_DELTA:
                windows[-1].append(delta)
        last_offset[key] = access.offset
    return windows


def _reference_statistics(windows):
    """Per-window counts, distinct values and top-5 occurrence sums."""
    counts, distincts, top5s = [], [], []
    for deltas in windows:
        counts.append(len(deltas))
        values, occurrences = np.unique(deltas, return_counts=True)
        distincts.append(values.size)
        top5s.append(int(np.sort(occurrences)[::-1][:5].sum())
                     if values.size else 0)
    return counts, distincts, top5s


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_delta_pass_matches_reference_loop(name):
    trace = make_trace(name, 5000, seed=1)
    for window in (1000, 700):
        windows = _reference_windows(trace, window)
        deltas = [d for w in windows for d in w]
        assert trace.deltas_within_page().tolist() == deltas
        assert delta_histogram(trace) == dict(Counter(deltas))
        counts, distincts, top5s = _reference_statistics(windows)
        stats = delta_statistics(trace, window=window)
        assert stats == DeltaStatistics(
            avg_deltas=float(np.mean(counts)),
            avg_distinct=float(np.mean(distincts)),
            avg_top5=float(np.mean([float(t) for t in top5s])),
            window=window)
        # Table 8's whole-count row: each plain mean truncated.
        assert (int(stats.avg_deltas), int(stats.avg_distinct),
                int(stats.avg_top5)) == tuple(
            int(sum(column) / len(column))
            for column in (counts, distincts, top5s))


def test_delta_statistics_of_short_and_empty_traces():
    assert delta_statistics(Trace("e")) == DeltaStatistics(0.0, 0.0, 0.0,
                                                           1000)
    stats = delta_statistics(_pattern_trace(), window=1000)
    assert (stats.avg_deltas, stats.avg_distinct, stats.avg_top5) == (
        40.0, 1.0, 40.0)


def test_delta_statistics_validation():
    with pytest.raises(ConfigError):
        delta_statistics(_pattern_trace(), window=0)


def test_profile_trace_fields():
    profile = profile_trace(_pattern_trace())
    assert profile.loads == 50
    assert profile.unique_pages == 10
    assert profile.deltas_total == 40
    assert profile.deltas_in_15 == 40
    assert profile.instructions_per_load == pytest.approx(
        profile.instructions / profile.loads)


def test_diagnose_selective_profile():
    result = SimResult(trace_name="t", prefetcher_name="pf",
                       instructions=1000, cycles=500, loads=100,
                       pf_issued=50, pf_useful=45)
    diagnosis = diagnose(result)
    assert diagnosis.issue_rate == 0.5
    assert diagnosis.accuracy == 0.9
    assert "selective" in diagnosis.verdict


def test_diagnose_aggressive_profile():
    result = SimResult(trace_name="t", prefetcher_name="pyt",
                       instructions=1000, cycles=500, loads=100,
                       pf_issued=150, pf_useful=30)
    assert "aggressive" in diagnose(result).verdict


def test_diagnose_silent_profile():
    result = SimResult(trace_name="t", prefetcher_name="sisb",
                       instructions=1000, cycles=500, loads=100,
                       pf_issued=2, pf_useful=2)
    assert "silent" in diagnose(result).verdict


def test_diagnose_speedup_with_baseline():
    baseline = SimResult(trace_name="t", prefetcher_name="none",
                         instructions=1000, cycles=1000)
    result = SimResult(trace_name="t", prefetcher_name="pf",
                       instructions=1000, cycles=800, loads=10,
                       pf_issued=5, pf_useful=4)
    assert diagnose(result, baseline).speedup == pytest.approx(1.25)


def test_compare_rows():
    result = SimResult(trace_name="t", prefetcher_name="pf",
                       instructions=10, cycles=5, loads=10,
                       pf_issued=5, pf_useful=4)
    rows = compare([diagnose(result)])
    assert rows[0][0] == "pf"
    assert len(rows[0]) == 7
