"""Workload-characterisation statistics (paper Tables 5, 7, 8).

These are the numbers the paper uses to explain *why* each prefetcher
behaves as it does on each benchmark: how dense the within-page delta
stream is, how concentrated it is on a few values, how much of it fits
in a reduced delta range, and how much raw address reuse exists for
temporal prefetchers to exploit.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict

import numpy as np

from ..errors import ConfigError
from ..types import PAGE_BITS, Trace


@dataclass(frozen=True)
class DeltaStatistics:
    """Per-window delta statistics (the paper's Table 8 columns).

    Attributes:
        avg_deltas: Mean within-page deltas per window.
        avg_distinct: Mean distinct delta values per window.
        avg_top5: Mean summed occurrences of the 5 most frequent
            distinct deltas per window.
        window: Window size in accesses.
    """

    avg_deltas: float
    avg_distinct: float
    avg_top5: float
    window: int


@dataclass(frozen=True)
class TraceProfile:
    """A full workload characterisation.

    Attributes:
        name: Trace name.
        loads: Number of demand loads.
        instructions: Total instructions (Table 5).
        instructions_per_load: Mean instruction gap.
        unique_blocks: Distinct cache blocks touched.
        unique_pages: Distinct pages touched.
        reuse_fraction: Fraction of accesses to a previously-seen block
            (what temporal prefetchers can possibly exploit).
        deltas_total: Total in-range within-page deltas (Table 7 base).
        deltas_in_31: Deltas with |d| < 31 (Table 7).
        deltas_in_15: Deltas with |d| < 15 (Table 7).
        delta_stats: Windowed statistics (Table 8).
    """

    name: str
    loads: int
    instructions: int
    instructions_per_load: float
    unique_blocks: int
    unique_pages: int
    reuse_fraction: float
    deltas_total: int
    deltas_in_31: int
    deltas_in_15: int
    delta_stats: DeltaStatistics


def delta_histogram(trace: Trace) -> Dict[int, int]:
    """Histogram of within-page deltas (per pc/page stream)."""
    return dict(Counter(trace.deltas_within_page().tolist()))


def reuse_fraction(trace: Trace) -> float:
    """Fraction of accesses whose block was accessed before."""
    if not len(trace):
        raise ConfigError("cannot profile an empty trace")
    distinct = len(np.unique(trace.blocks))
    return (len(trace) - distinct) / len(trace)


def delta_statistics(trace: Trace, window: int = 1000) -> DeltaStatistics:
    """Windowed delta statistics exactly as the paper's Table 8 counts
    them: within-page per-(pc, page) deltas, grouped into fixed-size
    access windows (a trailing partial window counts as one)."""
    if window < 1:
        raise ConfigError("window must be >= 1")
    stream_deltas = trace.stream_deltas()
    counts, distincts, top5s = [], [], []
    for start in range(0, max(len(stream_deltas), 1), window):
        deltas = stream_deltas[start:start + window]
        deltas = deltas[deltas != 0]
        counts.append(len(deltas))
        values, occurrences = np.unique(deltas, return_counts=True)
        distincts.append(values.size)
        top5s.append(float(np.sort(occurrences)[::-1][:5].sum())
                     if values.size else 0.0)
    return DeltaStatistics(
        avg_deltas=float(np.mean(counts)),
        avg_distinct=float(np.mean(distincts)),
        avg_top5=float(np.mean(top5s)),
        window=window)


def profile_trace(trace: Trace, window: int = 1000) -> TraceProfile:
    """Compute the full characterisation of one trace."""
    if not len(trace):
        raise ConfigError("cannot profile an empty trace")
    deltas = trace.deltas_within_page()
    blocks = np.unique(trace.blocks)
    pages = np.unique(trace.addresses >> PAGE_BITS)
    return TraceProfile(
        name=trace.name,
        loads=len(trace),
        instructions=trace.instruction_count,
        instructions_per_load=trace.instruction_count / len(trace),
        unique_blocks=len(blocks),
        unique_pages=len(pages),
        reuse_fraction=reuse_fraction(trace),
        deltas_total=int(deltas.size),
        deltas_in_31=int(np.sum(np.abs(deltas) < 31)) if deltas.size else 0,
        deltas_in_15=int(np.sum(np.abs(deltas) < 15)) if deltas.size else 0,
        delta_stats=delta_statistics(trace, window=window))
