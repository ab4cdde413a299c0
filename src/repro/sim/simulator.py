"""Two-phase trace replay: demand loads + a precomputed prefetch file.

This mirrors the ML-DPC ChampSim fork's flow (paper §4.1): prefetchers
run offline over the load trace to emit a prefetch file (a columnar
:class:`~repro.types.PrefetchFile`); the simulator then replays the
trace, injecting each prefetch into the LLC when its triggering
instruction dispatches.  Prefetching is memory→LLC only, exactly as in
the competition setting.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..errors import SimulationError
from ..obs import Counter, Observability
from ..types import PrefetchFile, PrefetchRequest, Trace
from .cache import CacheConfig, SetAssociativeCache
from .cpu import CoreConfig, TimingCore
from .dram import DramConfig, DramModel
from .fast_engine import batch as batch_engine
from .fast_engine.batch import REPLAY_QUEUE_GAUGE, REPLAY_SERIES_NAMES
from .fast_engine.planner import ReplayPlan
from .metrics import SimResult

#: What :meth:`Simulator.run` replays: a prefetch file, or any
#: iterable of request records (converted once on entry).
Prefetches = Union[PrefetchFile, Iterable[PrefetchRequest]]


@dataclass(frozen=True)
class HierarchyConfig:
    """The full memory-hierarchy configuration (paper Table 3 defaults).

    Attributes:
        l1d / l2 / llc: Per-level cache geometry and latency.
        dram: DRAM organisation and timing.
        core: Timing-core parameters.
        max_prefetches_per_access: Issue budget per triggering load
            (paper: 2).
    """

    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="L1D", sets=64, ways=12, latency=5))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="L2", sets=1024, ways=8, latency=10))
    llc: CacheConfig = field(default_factory=lambda: CacheConfig(
        name="LLC", sets=2048, ways=16, latency=20))
    dram: DramConfig = field(default_factory=DramConfig)
    core: CoreConfig = field(default_factory=CoreConfig)
    max_prefetches_per_access: int = 2

    @classmethod
    def scaled(cls, divisor: int = 16) -> "HierarchyConfig":
        """A proportionally shrunk hierarchy for scaled-down traces.

        The paper replays 1M loads against a 2MB LLC; this
        reproduction's default traces are 20–50× shorter, so with the
        full-size hierarchy their working sets never pressure the LLC
        and temporal reuse all hits in cache.  Dividing every cache's
        set count by ``divisor`` (default 16 → 128KB LLC) restores the
        paper's working-set:LLC ratio while keeping latencies and the
        rest of Table 3 intact.
        """
        return cls(
            l1d=CacheConfig(name="L1D", sets=max(1, 64 // divisor),
                            ways=12, latency=5),
            l2=CacheConfig(name="L2", sets=max(1, 1024 // divisor),
                           ways=8, latency=10),
            llc=CacheConfig(name="LLC", sets=max(1, 2048 // divisor),
                            ways=16, latency=20),
        )


class Simulator:
    """Replays one trace with one prefetch file.

    Instances are single-use: construct, call :meth:`run`, read the
    returned :class:`~repro.sim.metrics.SimResult`.

    With an enabled :class:`~repro.obs.Observability` bundle, the run
    emits prefetch-lifecycle events (``pf.issued`` → ``pf.fill`` →
    ``pf.useful``/``pf.late``/``pf.dropped``/``pf.evicted_unused``),
    mirrors per-level hit/miss counters and the DRAM queue-wait
    histogram into the metrics registry, and brackets the replay in
    ``run.begin``/``run.end`` events.  With the default disabled
    bundle the replay loop pays only a handful of boolean checks.

    The simulator picks its replay loop from what it can observe; both
    produce bit-identical results (enforced by
    ``tests/test_replay_parity.py`` and
    ``tests/test_replay_differential.py``):

    - ``"batch"`` — :mod:`repro.sim.fast_engine.batch` runs the whole
      sequential recurrence in a compiled C kernel, which writes its
      counters back into this simulator's caches and DRAM model;
    - ``"reference"`` — the straightforward per-object loop in
      :meth:`_run_reference`, kept as the readable specification,
      parity oracle, and the loop for everything the kernel cannot
      take.

    Both read one replay plan
    (:func:`~repro.sim.fast_engine.planner.plan_replay`): the prefetch
    file's per-access trigger schedule in CSR form, after the invalid
    drop and the per-trigger budget trim.

    :meth:`run` always hands the replay to
    :func:`~repro.sim.fast_engine.batch.replay_batch`, which picks the
    loop: the kernel covers metrics-level observability on a cold
    simulator, and per-event tracing, an ineligible plan,
    pre-populated state or no C compiler (or ``REPRO_NO_CKERNEL=1``)
    select the reference loop.  Each of these emits one typed
    :class:`~repro.errors.EngineFallbackWarning` from :meth:`run` and
    sets :attr:`engine_used`, so a caller always sees which loop ran;
    construction never warns.

    The multicore co-run (:mod:`repro.sim.multicore`) steps each core
    through :meth:`_drain_completed_prefetches`, :meth:`_demand_access`
    and :meth:`_issue_prefetch` directly, over an LLC, DRAM model and
    prefetch queue that its cores share.
    """

    def __init__(self, config: Optional[HierarchyConfig] = None,
                 obs: Optional[Observability] = None):
        self.config = config or HierarchyConfig()
        self.obs = obs if obs is not None else Observability.disabled()
        self._trace_events = self.obs.tracer.enabled
        #: The loop that ran (or will run): ``"batch"`` until
        #: :meth:`run` meets a condition the kernel cannot take and
        #: selects ``"reference"``.
        self.engine_used = "batch"
        self.l1d = SetAssociativeCache(self.config.l1d)
        self.l2 = SetAssociativeCache(self.config.l2)
        self.llc = SetAssociativeCache(self.config.llc)
        self.dram = DramModel(self.config.dram)
        self.core = TimingCore(self.config.core)
        # Typed drop counter (always live — drops are rare, so this
        # costs nothing on the hot path); mirrored into the registry
        # and ``result.extra`` at the end of the run.
        self._pf_dropped = Counter()
        # In-flight prefetches as a min-heap of (completion_cycle, block)
        # plus a membership map for O(1) match.  Completion cycles are
        # integers end to end (DRAM arithmetic is all-int).
        self._pf_heap: List[Tuple[int, int]] = []
        self._pf_inflight: Dict[int, int] = {}
        self._ran = False

    # -- prefetch handling -------------------------------------------------

    def _drain_completed_prefetches(self, cycle: float) -> None:
        """Fill the LLC with every prefetch whose data has arrived."""
        while self._pf_heap and self._pf_heap[0][0] <= cycle:
            _, block = heapq.heappop(self._pf_heap)
            completion = self._pf_inflight.pop(block, None)
            if completion is None:
                continue  # superseded (demand fetched it first)
            if self._trace_events:
                evicted_before = self.llc.evicted_unused_prefetches
                victim = self.llc.insert(block, prefetched=True)
                self.obs.tracer.emit("pf.fill", block=block, cycle=cycle)
                if self.llc.evicted_unused_prefetches > evicted_before:
                    self.obs.tracer.emit("pf.evicted_unused", block=victim,
                                         cycle=cycle)
            else:
                self.llc.insert(block, prefetched=True)

    def _issue_prefetch(self, block: int, cycle: float, result: SimResult,
                        trigger: Optional[int] = None) -> None:
        if self.llc.contains(block) or block in self._pf_inflight:
            self._pf_dropped.inc()
            if self._trace_events:
                reason = ("inflight" if block in self._pf_inflight
                          else "resident")
                self.obs.tracer.emit("pf.dropped", block=block, cycle=cycle,
                                     trigger=trigger, reason=reason)
            return
        completion = self.dram.access(block, int(cycle))
        self._pf_inflight[block] = completion
        heapq.heappush(self._pf_heap, (completion, block))
        result.pf_issued += 1
        if self._trace_events:
            self.obs.tracer.emit("pf.issued", block=block, cycle=cycle,
                                 completion=completion, trigger=trigger)

    # -- demand path -------------------------------------------------------

    def _demand_access(self, block: int, dispatch: float,
                       result: SimResult) -> float:
        """Serve one demand load; returns its total latency in cycles."""
        cfg = self.config
        if self.l1d.lookup(block):
            result.l1d_hits += 1
            return cfg.l1d.latency
        if self.l2.lookup(block):
            result.l2_hits += 1
            self.l1d.insert(block)
            return cfg.l1d.latency + cfg.l2.latency
        lookup_latency = cfg.l1d.latency + cfg.l2.latency + cfg.llc.latency
        trace_events = self._trace_events
        useful_before = self.llc.useful_prefetches if trace_events else 0
        if self.llc.lookup(block):
            result.llc_hits += 1
            if trace_events and self.llc.useful_prefetches > useful_before:
                self.obs.tracer.emit("pf.useful", block=block, cycle=dispatch)
            self.l2.insert(block)
            self.l1d.insert(block)
            return lookup_latency
        result.llc_misses += 1
        inflight = self._pf_inflight.pop(block, None)
        if inflight is not None:
            # Late prefetch: demand waits only for the remaining latency.
            result.pf_late += 1
            result.pf_useful += 1
            completion = max(inflight, dispatch + lookup_latency)
            if trace_events:
                self.obs.tracer.emit("pf.late", block=block, cycle=dispatch,
                                     waited=completion - dispatch)
        else:
            issue = self.core.mshr_admit(dispatch + lookup_latency)
            completion = self.dram.access(block, int(issue))
            self.core.mshr_fill(completion)
        if trace_events:
            evicted_before = self.llc.evicted_unused_prefetches
            victim = self.llc.insert(block)
            if self.llc.evicted_unused_prefetches > evicted_before:
                self.obs.tracer.emit("pf.evicted_unused", block=victim,
                                     cycle=dispatch)
        else:
            self.llc.insert(block)
        self.l2.insert(block)
        self.l1d.insert(block)
        return completion - dispatch

    # -- main loop ---------------------------------------------------------

    def run(self, trace: Trace, prefetches: Prefetches = (),
            prefetcher_name: str = "none") -> SimResult:
        """Replay ``trace`` with the given prefetch file.

        One plan serves both loops.  Records with a negative address
        are dropped first and counted in ``extra["pf_dropped"]``
        (traced as ``pf.dropped reason=invalid``, in file order).  Each
        trigger id then keeps its first ``max_prefetches_per_access``
        records in file order, and every access carrying that id
        issues them; triggers naming no trace instruction are ignored,
        as ChampSim does.

        Args:
            trace: The demand-load trace.
            prefetches: A :class:`~repro.types.PrefetchFile` (as
                :func:`~repro.prefetchers.base.generate_prefetches`
                returns), or any iterable of
                :class:`~repro.types.PrefetchRequest` records, converted
                once by :meth:`~repro.types.PrefetchFile.from_requests`.
            prefetcher_name: Label recorded in the result.

        Returns:
            The populated :class:`SimResult`.

        Raises:
            SimulationError: if the simulator instance is reused.
            PrefetchFileError: a record does not fit in ``int64``.
        """
        if self._ran:
            raise SimulationError("Simulator instances are single-use")
        self._ran = True

        pfile = PrefetchFile.for_trace(trace, prefetches)
        plan = batch_engine.plan_replay(
            trace.arrays(), pfile, self.config.max_prefetches_per_access)
        if len(plan.invalid):
            # A corrupt prefetch file (or a buggy prefetcher slipping
            # past the guard) must degrade to dropped prefetches, not
            # crash the replay with nonsense block indexes.
            self._pf_dropped.inc(len(plan.invalid))
            if self._trace_events:
                triggers = pfile.triggers()
                for k in plan.invalid.tolist():
                    self.obs.tracer.emit(
                        "pf.dropped", block=int(pfile.addresses[k]),
                        trigger=int(triggers[k]), reason="invalid")

        result = SimResult(trace_name=trace.name,
                           prefetcher_name=prefetcher_name,
                           instructions=trace.instruction_count,
                           loads=len(trace))

        if self.obs.enabled:
            self.dram.wait_histogram = self.obs.registry.histogram(
                "dram.queue_wait_cycles", run=prefetcher_name,
                trace=trace.name)
        if self._trace_events:
            self.obs.tracer.emit("run.begin", trace=trace.name,
                                 prefetcher=prefetcher_name,
                                 loads=len(trace))

        # Windowed series collection (``--series``): one recorder per
        # replay, fed cumulative counters at window boundaries.  With
        # no collector armed — the default — both loops run their
        # series-free path untouched.
        recorder = None
        if self.obs.series is not None:
            recorder = self.obs.series.recorder(
                component="replay", prefetcher=prefetcher_name,
                trace=trace.name)

        batch_engine.replay_batch(self, trace, plan, result,
                                  recorder=recorder)

        # Account prefetched lines that were demanded after install.
        result.pf_useful += self.llc.useful_prefetches
        result.dram_requests = self.dram.requests
        result.extra["dram_avg_wait"] = self.dram.average_wait
        result.extra["pf_unused_evicted"] = float(
            self.llc.evicted_unused_prefetches)
        if self._pf_dropped.value:
            result.extra["pf_dropped"] = float(self._pf_dropped.value)
        self._publish_metrics(trace, prefetcher_name, result)
        return result

    def _run_reference(self, trace: Trace, plan: ReplayPlan,
                       result: SimResult, recorder=None) -> None:
        """The reference replay loop — the readable specification.

        Runs every replay the batch kernel cannot take.  Access ``i``
        issues the plan's CSR row ``i``, exactly the blocks the kernel
        issues there.  With a
        :class:`~repro.obs.timeseries.WindowRecorder` armed it also
        samples the cumulative counters at each window boundary
        (:meth:`_sample_series`); sampling only reads state, so the
        :class:`SimResult` stays bit-identical with and without
        ``--series``.
        """
        n = len(trace)
        window = recorder.window if recorder is not None else 0
        next_boundary = min(window, n) if recorder is not None else -1
        arrays = trace.arrays()
        starts = plan.pf_starts.tolist()
        pf_blocks = plan.pf_blocks.tolist()
        for i, (instr_id, demand_block) in enumerate(
                zip(arrays.instr_ids.tolist(), arrays.blocks.tolist()), 1):
            dispatch = self.core.dispatch_load(instr_id)
            self._drain_completed_prefetches(dispatch)
            latency = self._demand_access(demand_block, dispatch, result)
            self.core.complete_load(instr_id, dispatch + latency)
            for block in pf_blocks[starts[i - 1]:starts[i]]:
                self._issue_prefetch(block, dispatch, result,
                                     trigger=instr_id)
            if i == next_boundary:
                self._sample_series(recorder, i, result)
                next_boundary = min(next_boundary + window, n)
        result.cycles = self.core.finalize(trace.instruction_count)

    def _sample_series(self, recorder, index: int,
                       result: SimResult) -> None:
        """Record one window-boundary row in the kernel's series layout.

        The queue gauge counts the DRAM requests still outstanding as
        of the last request, which is what the kernel reports.
        """
        recorder.sample(index, cumulative=dict(zip(
            REPLAY_SERIES_NAMES,
            (self.l1d.hits, self.l1d.misses,
             self.l2.hits, self.l2.misses,
             self.llc.hits, self.llc.misses,
             self.llc.useful_prefetches,
             result.pf_issued, result.pf_late,
             self._pf_dropped.value,
             self.dram.requests, self.dram.total_wait_cycles))),
            gauges={REPLAY_QUEUE_GAUGE: len(self.dram._inflight)})

    def _publish_metrics(self, trace: Trace, prefetcher_name: str,
                         result: SimResult) -> None:
        """Mirror the run's counters into the registry and close events."""
        if not self.obs.enabled:
            return
        scope = self.obs.registry.scope(run=prefetcher_name,
                                        trace=trace.name)
        for cache, hits in ((self.l1d, result.l1d_hits),
                            (self.l2, result.l2_hits),
                            (self.llc, result.llc_hits)):
            level = scope.scope(level=cache.config.name)
            level.counter("cache.hits").inc(cache.hits)
            level.counter("cache.misses").inc(cache.misses)
        scope.counter("pf.issued").inc(result.pf_issued)
        scope.counter("pf.useful").inc(result.pf_useful)
        scope.counter("pf.late").inc(result.pf_late)
        scope.counter("pf.dropped").inc(self._pf_dropped.value)
        scope.counter("pf.evicted_unused").inc(
            self.llc.evicted_unused_prefetches)
        scope.counter("dram.requests").inc(self.dram.requests)
        scope.gauge("sim.ipc").set(result.ipc)
        scope.gauge("sim.cycles").set(result.cycles)
        if self._trace_events:
            self.obs.tracer.emit(
                "run.end", trace=trace.name, prefetcher=prefetcher_name,
                cycles=result.cycles, ipc=result.ipc,
                pf_issued=result.pf_issued, pf_useful=result.pf_useful,
                pf_late=result.pf_late, pf_dropped=self._pf_dropped.value,
                llc_hits=result.llc_hits, llc_misses=result.llc_misses)


def simulate(trace: Trace, prefetches: Prefetches = (),
             config: Optional[HierarchyConfig] = None,
             prefetcher_name: str = "none",
             obs: Optional[Observability] = None) -> SimResult:
    """Convenience wrapper: build a fresh :class:`Simulator` and run it."""
    return Simulator(config, obs=obs).run(trace, prefetches, prefetcher_name)
