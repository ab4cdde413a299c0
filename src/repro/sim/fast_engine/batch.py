"""The compiled replay driver.

Executes a :class:`~repro.sim.fast_engine.planner.ReplayPlan` on the
compiled C kernel (:mod:`~repro.sim.fast_engine.ckernel`) and writes
the kernel's counters back into the simulator's caches and DRAM model.
Whatever the kernel cannot take — event tracing, no C compiler (or
``REPRO_NO_CKERNEL=1``), an ineligible plan (non-monotone instruction
ids, negative blocks, oversized ids), or a simulator whose state is
already populated — runs on the reference loop instead, over the same
plan, with an :class:`~repro.errors.EngineFallbackWarning` and
``sim.engine_used = "reference"``.  Both paths produce bit-identical
:class:`~repro.sim.metrics.SimResult`\\ s; the parity and differential
suites run them against each other.

:meth:`~repro.sim.simulator.Simulator.run` builds every replay's plan
through this module's :func:`plan_replay` (re-exported from
:mod:`.planner`), so the plan and the kernel are reached through one
module.  The cross-lineup amortization lives one level down: the
planner reads the monotone flag cached on
:class:`repro.types.TraceArrays`, so a grid/bench lineup (baseline + N
prefetchers × repeats over one trace) derives it once.
"""

from __future__ import annotations

import warnings

import numpy as np

from ...errors import EngineFallbackWarning
from ...types import Trace
from ..metrics import SimResult
from .ckernel import load_kernel
from .planner import ReplayPlan, plan_replay  # noqa: F401 (re-exported)

#: Recorder series names for the kernel's per-window row columns, in
#: :data:`~repro.sim.fast_engine.ckernel.SERIES_FIELDS` order (the last
#: column is the DRAM-queue occupancy gauge).
REPLAY_SERIES_NAMES = (
    "replay.l1_hits", "replay.l1_misses",
    "replay.l2_hits", "replay.l2_misses",
    "replay.llc_hits", "replay.llc_misses", "replay.llc_useful",
    "replay.pf_issued", "replay.pf_late", "replay.pf_dropped",
    "replay.dram_requests", "replay.dram_wait",
)

REPLAY_QUEUE_GAUGE = "replay.dram_queue_len"


def feed_kernel_series(recorder, series_rows: np.ndarray, n: int,
                       window: int) -> None:
    """Feed the compiled kernel's cumulative rows through a recorder.

    ``series_rows`` is the kernel's ``out["series"]`` matrix: one row
    per window, cumulative counters plus the queue gauge, exactly what
    :meth:`~repro.obs.timeseries.WindowRecorder.sample` expects.
    """
    for k, row in enumerate(series_rows.tolist()):
        end = (k + 1) * window
        if end > n:
            end = n
        recorder.sample(
            end,
            cumulative=dict(zip(REPLAY_SERIES_NAMES, row)),
            gauges={REPLAY_QUEUE_GAUGE: row[len(REPLAY_SERIES_NAMES)]})


def _fallback_reason(sim, plan):
    """Why the kernel cannot run this replay, or ``None`` if it can."""
    # The kernel has no per-event hooks.
    if sim._trace_events:
        return "event tracing is enabled"
    if not plan.kernel_eligible:
        return plan.fallback_reason
    # The kernel starts from empty caches, DRAM and prefetch state.
    if (sim.l1d.occupancy or sim.l2.occupancy or sim.llc.occupancy
            or sim.dram.requests or sim._pf_heap or sim._pf_inflight):
        return "simulator state is pre-populated"
    if load_kernel() is None:
        return "replay kernel unavailable"
    return None


def replay_batch(sim, trace: Trace, plan: ReplayPlan,
                 result: SimResult, recorder=None) -> None:
    """Replay ``trace`` on ``sim`` according to ``plan``.

    Same contract as :meth:`~repro.sim.simulator.Simulator._run_reference`:
    mutates ``result`` and the simulator's cache/DRAM stats in place;
    the caller owns the shared epilogue.  With a
    :class:`~repro.obs.timeseries.WindowRecorder` armed, the kernel
    emits one cumulative-counter row per window — pure observation,
    results stay bit-identical.
    """
    reason = _fallback_reason(sim, plan)
    if reason is not None:
        sim.engine_used = "reference"
        warnings.warn(EngineFallbackWarning(
            f"replay engine downgraded to 'reference': {reason}"),
            stacklevel=3)
        sim._run_reference(trace, plan, result, recorder)
        return

    arrays = trace.arrays()
    kernel = load_kernel()
    series_window = recorder.window if recorder is not None else 0
    out = kernel.replay(arrays.instr_ids, arrays.blocks,
                        plan.pf_starts, plan.pf_blocks, sim.config,
                        series_window=series_window)
    if recorder is not None:
        feed_kernel_series(recorder, out["series"], len(arrays),
                           series_window)

    # -- write the kernel's counters back (same targets as the
    # reference loop's epilogue) -----------------------------------------
    l1, l2, llc, dram = sim.l1d, sim.l2, sim.llc, sim.dram
    l1.hits, l1.misses = out["l1_hits"], out["l1_misses"]
    l2.hits, l2.misses = out["l2_hits"], out["l2_misses"]
    llc.hits, llc.misses = out["llc_hits"], out["llc_misses"]
    llc.useful_prefetches = out["llc_useful"]
    llc.evicted_unused_prefetches = out["llc_evicted_unused"]
    llc.prefetch_fills = out["llc_pf_fills"]
    dram.requests = out["dram_requests"]
    dram.total_wait_cycles = out["dram_wait"]
    wait_hist = dram.wait_histogram
    if wait_hist is not None:
        observe = wait_hist.observe
        for wait in out["waits"].tolist():
            observe(wait)
    if out["pf_dropped"]:
        sim._pf_dropped.inc(out["pf_dropped"])

    result.l1d_hits = out["l1_hits"]
    result.l2_hits = out["l2_hits"]
    result.llc_hits = out["llc_hits"]
    result.llc_misses = out["llc_misses"]
    result.pf_issued = out["pf_issued"]
    result.pf_late = out["pf_late"]
    # Late prefetches count as useful here, exactly as in the reference
    # loop; the caller's epilogue adds the LLC's in-cache useful count.
    result.pf_useful = out["pf_late"]

    # ---- core.finalize -------------------------------------------------
    cycles = trace.instruction_count / sim.config.core.width
    for cursor in (out["dispatch"], out["commit"], out["drain"]):
        if cursor > cycles:
            cycles = cursor
    result.cycles = cycles
