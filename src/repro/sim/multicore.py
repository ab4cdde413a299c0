"""Multi-core simulation: private L1/L2 per core, shared LLC and DRAM.

The single-core replay (:mod:`repro.sim.simulator`) models the paper's
evaluation setting.  This module extends the same substrate to co-run
several traces the way a multi-programmed system would: each core has
its own timing model and private caches, while the LLC and the DRAM
banks are shared — so one program's streaming evicts another's working
set and prefetch traffic competes for bandwidth.  This is the substrate
behind the §2.3 interference motivation (see the ``noise`` experiment
for the shared-stream variant).

Cores are interleaved in global dispatch-cycle order: at every step the
core whose next access dispatches earliest proceeds, which keeps the
shared-resource timeline consistent without a full event queue.

Each core's prefetch file goes through the same replay plan as the
single-core simulator (:func:`~repro.sim.fast_engine.planner.plan_replay`):
negative addresses are dropped and counted in that core's
``extra["pf_dropped"]``, and each trigger id keeps its first
``max_prefetches_per_access`` records.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError, SimulationError
from ..types import PrefetchFile, Trace
from .cache import SetAssociativeCache
from .cpu import TimingCore
from .dram import DramModel
from .fast_engine.planner import plan_replay
from .metrics import SimResult
from .simulator import HierarchyConfig, Prefetches


@dataclass
class MulticoreResult:
    """Results of a co-run: per-core metrics plus aggregates.

    Attributes:
        per_core: One :class:`SimResult` per core, in input order.
    """

    per_core: List[SimResult] = field(default_factory=list)

    def weighted_speedup(self, solo_ipcs: Sequence[float]) -> float:
        """Σ IPC_shared / IPC_solo — the standard co-run metric."""
        if len(solo_ipcs) != len(self.per_core):
            raise ConfigError("solo_ipcs length must match core count")
        total = 0.0
        for result, solo in zip(self.per_core, solo_ipcs):
            if solo <= 0:
                raise ConfigError("solo IPC must be positive")
            total += result.ipc / solo
        return total

    @property
    def total_dram_requests(self) -> int:
        """DRAM reads across all cores (shared channel)."""
        return max((r.dram_requests for r in self.per_core), default=0)


class _Core:
    """Per-core private state."""

    def __init__(self, index: int, trace: Trace, prefetches: Prefetches,
                 config: HierarchyConfig):
        self.index = index
        self.trace = trace
        self.l1d = SetAssociativeCache(config.l1d)
        self.l2 = SetAssociativeCache(config.l2)
        self.core = TimingCore(config.core)
        self.position = 0
        arrays = trace.arrays()
        #: The trace's id and block columns, as lists for the loop.
        self.instr_ids = arrays.instr_ids.tolist()
        self.blocks = arrays.blocks.tolist()
        plan = plan_replay(arrays,
                           PrefetchFile.for_trace(trace, prefetches),
                           config.max_prefetches_per_access)
        #: CSR trigger schedule: position ``i`` issues
        #: ``pf_blocks[pf_starts[i]:pf_starts[i + 1]]``.
        self.pf_starts = plan.pf_starts.tolist()
        self.pf_blocks = plan.pf_blocks.tolist()
        self.result = SimResult(trace_name=trace.name,
                                prefetcher_name="multicore",
                                instructions=trace.instruction_count,
                                loads=len(trace))
        if len(plan.invalid):
            self.result.extra["pf_dropped"] = float(len(plan.invalid))

    def done(self) -> bool:
        return self.position >= len(self.trace)

    def next_dispatch_estimate(self) -> float:
        """Dispatch cycle of the next access if it ran now."""
        gap = max(0, self.instr_ids[self.position]
                  - self.core._last_instr_id)  # estimate only
        return self.core.cycle + gap / self.core.config.width


class MulticoreSimulator:
    """Co-runs N traces over a shared LLC and DRAM."""

    def __init__(self, config: Optional[HierarchyConfig] = None,
                 address_isolation: bool = True):
        self.config = config or HierarchyConfig()
        self.llc = SetAssociativeCache(self.config.llc)
        self.dram = DramModel(self.config.dram)
        self.address_isolation = address_isolation
        # Completion cycles are integers end to end (DRAM arithmetic
        # is all-int), as in the single-core simulator.
        self._pf_heap: List[Tuple[int, int]] = []
        self._pf_inflight: Dict[int, int] = {}
        self._ran = False

    # -- shared-LLC helpers --------------------------------------------------

    def _isolate(self, core_index: int, block: int) -> int:
        """Tag a block with the core's address space (separate programs)."""
        if not self.address_isolation:
            return block
        return block | (core_index << 44)

    def _drain_prefetches(self, cycle: float) -> None:
        while self._pf_heap and self._pf_heap[0][0] <= cycle:
            _, block = heapq.heappop(self._pf_heap)
            if self._pf_inflight.pop(block, None) is not None:
                self.llc.insert(block, prefetched=True)

    def _issue_prefetch(self, core: _Core, block: int, cycle: float) -> None:
        if self.llc.contains(block) or block in self._pf_inflight:
            return
        completion = self.dram.access(block, int(cycle))
        self._pf_inflight[block] = completion
        heapq.heappush(self._pf_heap, (completion, block))
        core.result.pf_issued += 1

    def _demand(self, core: _Core, block: int, dispatch: float) -> float:
        cfg = self.config
        result = core.result
        if core.l1d.lookup(block):
            result.l1d_hits += 1
            return cfg.l1d.latency
        if core.l2.lookup(block):
            result.l2_hits += 1
            core.l1d.insert(block)
            return cfg.l1d.latency + cfg.l2.latency
        lookup_latency = cfg.l1d.latency + cfg.l2.latency + cfg.llc.latency
        if self.llc.lookup(block):
            result.llc_hits += 1
            core.l2.insert(block)
            core.l1d.insert(block)
            return lookup_latency
        result.llc_misses += 1
        inflight = self._pf_inflight.pop(block, None)
        if inflight is not None:
            result.pf_late += 1
            result.pf_useful += 1
            completion = max(inflight, dispatch + lookup_latency)
        else:
            issue = core.core.mshr_admit(dispatch + lookup_latency)
            completion = self.dram.access(block, int(issue))
            core.core.mshr_fill(completion)
        self.llc.insert(block)
        core.l2.insert(block)
        core.l1d.insert(block)
        return completion - dispatch

    # -- main loop ---------------------------------------------------------

    def run(self, traces: Sequence[Trace],
            prefetch_files: Optional[Sequence[Prefetches]] = None
            ) -> MulticoreResult:
        """Co-run the traces; returns per-core results.

        Args:
            traces: One demand-load trace per core (≥ 2).
            prefetch_files: Optional per-core prefetch files (same
                order): :class:`~repro.types.PrefetchFile`\\ s or
                request iterables; ``None`` runs without prefetching.
        """
        if self._ran:
            raise SimulationError("MulticoreSimulator instances are single-use")
        self._ran = True
        if len(traces) < 2:
            raise ConfigError("multicore run needs at least two traces")
        if prefetch_files is not None and len(prefetch_files) != len(traces):
            raise ConfigError("prefetch_files must match trace count")

        cores = [
            _Core(i, trace,
                  prefetch_files[i] if prefetch_files is not None else (),
                  self.config)
            for i, trace in enumerate(traces)
        ]

        active = [c for c in cores if not c.done()]
        while active:
            core = min(active, key=lambda c: c.next_dispatch_estimate())
            position = core.position
            instr_id = core.instr_ids[position]
            core.position += 1
            dispatch = core.core.dispatch_load(instr_id)
            self._drain_prefetches(dispatch)
            block = self._isolate(core.index, core.blocks[position])
            latency = self._demand(core, block, dispatch)
            core.core.complete_load(instr_id, dispatch + latency)
            for pf_block in core.pf_blocks[core.pf_starts[position]:
                                           core.pf_starts[position + 1]]:
                self._issue_prefetch(core,
                                     self._isolate(core.index, pf_block),
                                     dispatch)
            if core.done():
                active.remove(core)

        result = MulticoreResult()
        llc_useful = self.llc.useful_prefetches
        for core in cores:
            core.result.cycles = core.core.finalize(
                core.trace.instruction_count)
            core.result.dram_requests = self.dram.requests
            result.per_core.append(core.result)
        # Shared-LLC useful-prefetch accounting cannot attribute hits to
        # cores exactly; apportion by issued share (documented estimate).
        total_issued = sum(c.result.pf_issued for c in cores)
        for core in cores:
            if total_issued:
                share = core.result.pf_issued / total_issued
                core.result.pf_useful += int(round(llc_useful * share))
        return result


def simulate_multicore(traces: Sequence[Trace],
                       prefetch_files: Optional[Sequence] = None,
                       config: Optional[HierarchyConfig] = None
                       ) -> MulticoreResult:
    """Convenience wrapper for one co-run."""
    return MulticoreSimulator(config).run(traces, prefetch_files)
