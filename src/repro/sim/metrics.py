"""Simulation result container and the paper's derived metrics.

The paper's appendix defines::

    accuracy = useful prefetches / issued prefetches
    coverage = useful prefetches / baseline (no-prefetch) LLC misses

Coverage therefore needs a baseline run; :func:`coverage` takes the
baseline miss count explicitly, and the harness threads it through.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class SimResult:
    """Everything a single simulation run reports.

    Attributes:
        trace_name: Name of the simulated trace.
        prefetcher_name: Name of the prefetcher that produced the
            prefetch file ("none" for the baseline).
        instructions: Total retired instructions.
        cycles: Total cycles from the timing model.
        loads: Number of demand loads replayed.
        l1d_hits / l2_hits / llc_hits: Demand hits per level.
        llc_misses: Demand LLC misses (went to DRAM or matched an
            in-flight prefetch).
        pf_issued: Prefetches injected (post-dedup, within budget).
        pf_useful: Prefetched blocks later hit by a demand access.
        pf_late: Demand accesses that matched a still-in-flight prefetch
            (counted in both ``llc_misses`` and ``pf_useful``-adjacent
            accounting, as ChampSim does for late prefetches).
        dram_requests: Total DRAM reads (demand + prefetch).
        extra: Free-form per-run diagnostics.
    """

    trace_name: str
    prefetcher_name: str
    instructions: int = 0
    cycles: float = 0.0
    loads: int = 0
    l1d_hits: int = 0
    l2_hits: int = 0
    llc_hits: int = 0
    llc_misses: int = 0
    pf_issued: int = 0
    pf_useful: int = 0
    pf_late: int = 0
    dram_requests: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        """Instructions per cycle."""
        if self.cycles <= 0:
            return 0.0
        return self.instructions / self.cycles

    def accuracy(self) -> float:
        """Useful / issued prefetches (0 when none were issued)."""
        return accuracy(self.pf_useful, self.pf_issued)

    def coverage(self, baseline_misses: int) -> float:
        """Useful prefetches / baseline LLC misses."""
        return coverage(self.pf_useful, baseline_misses)


def accuracy(useful: int, issued: int) -> float:
    """Prefetch accuracy; 0.0 when no prefetches were issued."""
    if issued <= 0:
        return 0.0
    return useful / issued


def coverage(useful: int, baseline_misses: int) -> float:
    """Prefetch coverage against a no-prefetch baseline's misses."""
    if baseline_misses <= 0:
        return 0.0
    return useful / baseline_misses


def speedup(result: SimResult, baseline: SimResult) -> float:
    """IPC ratio of ``result`` over ``baseline``."""
    if baseline.ipc <= 0:
        return 0.0
    return result.ipc / baseline.ipc
