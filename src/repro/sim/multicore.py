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

Each core is a :class:`~repro.sim.simulator.Simulator` whose L1D, L2
and timing core are its own and whose LLC, DRAM model and in-flight
prefetch queue are the co-run's shared ones; every step runs that
simulator's own prefetch drain, demand path and prefetch issue, so a
co-run serves loads exactly as the single-core reference loop does.

Each core's prefetch file goes through the same replay plan as the
single-core simulator (:func:`~repro.sim.fast_engine.planner.plan_replay`):
negative addresses are dropped, and each trigger id keeps its first
``max_prefetches_per_access`` records.  A core's
``extra["pf_dropped"]`` counts what :meth:`Simulator.run` counts: those
invalid records plus every prefetch whose block was resident in the
shared LLC or already in flight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import ConfigError, SimulationError
from ..types import PrefetchFile, Trace
from .cache import SetAssociativeCache
from .dram import DramModel
from .fast_engine.planner import plan_replay
from .metrics import SimResult
from .simulator import HierarchyConfig, Prefetches, Simulator


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


class _Core:
    """One core: a :class:`Simulator` over the co-run's shared uncore."""

    def __init__(self, index: int, trace: Trace, prefetches: Prefetches,
                 uncore: "MulticoreSimulator"):
        config = uncore.config
        self.index = index
        self.trace = trace
        self.sim = Simulator(config)
        self.sim.llc = uncore.llc
        self.sim.dram = uncore.dram
        self.sim._pf_heap = uncore._pf_heap
        self.sim._pf_inflight = uncore._pf_inflight
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
        self.sim._pf_dropped.inc(len(plan.invalid))

    def done(self) -> bool:
        return self.position >= len(self.trace)

    def next_dispatch_estimate(self) -> float:
        """Dispatch cycle of the next access if it ran now."""
        core = self.sim.core
        gap = max(0, self.instr_ids[self.position]
                  - core._last_instr_id)  # estimate only
        return core.cycle + gap / core.config.width


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

    def _isolate(self, core_index: int, block: int) -> int:
        """Tag a block with the core's address space (separate programs).

        Trace addresses are below 2^63, so blocks are below 2^57 and
        the tag sits above every block bit.
        """
        if not self.address_isolation:
            return block
        return block | (core_index << 57)

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
                  self)
            for i, trace in enumerate(traces)
        ]

        active = [c for c in cores if not c.done()]
        while active:
            core = min(active, key=lambda c: c.next_dispatch_estimate())
            sim = core.sim
            position = core.position
            instr_id = core.instr_ids[position]
            core.position += 1
            dispatch = sim.core.dispatch_load(instr_id)
            sim._drain_completed_prefetches(dispatch)
            block = self._isolate(core.index, core.blocks[position])
            latency = sim._demand_access(block, dispatch, core.result)
            sim.core.complete_load(instr_id, dispatch + latency)
            for pf_block in core.pf_blocks[core.pf_starts[position]:
                                           core.pf_starts[position + 1]]:
                sim._issue_prefetch(self._isolate(core.index, pf_block),
                                    dispatch, core.result)
            if core.done():
                active.remove(core)

        result = MulticoreResult()
        llc_useful = self.llc.useful_prefetches
        for core in cores:
            core.result.cycles = core.sim.core.finalize(
                core.trace.instruction_count)
            core.result.dram_requests = self.dram.requests
            if core.sim._pf_dropped.value:
                core.result.extra["pf_dropped"] = float(
                    core.sim._pf_dropped.value)
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
