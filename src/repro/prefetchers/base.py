"""The prefetcher interface and the trace→prefetch-file driver.

All prefetchers — PATHFINDER and every baseline — implement the same
per-access protocol: observe one demand load, optionally return byte
addresses to prefetch.  :func:`generate_prefetches` drives a prefetcher
over a whole trace and produces the ML-DPC-style prefetch file (a
columnar :class:`~repro.types.PrefetchFile`) that
:func:`repro.sim.simulate` replays, enforcing the paper's budget of at
most two prefetches per triggering access.
"""

from __future__ import annotations

from itertools import chain
from typing import List, Tuple

import numpy as np

from ..errors import ConfigError, PrefetchFileError, ReproError
from ..types import BLOCK_BITS, MemoryAccess, PrefetchFile, Trace


class Prefetcher:
    """Base class for all prefetchers.

    Subclasses implement :meth:`process`; stateful prefetchers keep
    their tables/models as instance attributes.  Offline-trained
    prefetchers (Delta-LSTM, Voyager) additionally override
    :meth:`train` which the driver calls before the replay pass.
    """

    #: Human-readable name used in reports.
    name = "base"

    def attach_observability(self, obs) -> None:
        """Accept an :class:`repro.obs.Observability` bundle.

        The base implementation ignores it; prefetchers with internal
        state worth exporting (PATHFINDER's SNN, ensembles) override
        this and :meth:`publish_telemetry`.
        """

    def publish_telemetry(self) -> None:
        """Push accumulated internals into the attached registry.

        Called by the harness after the prefetch file is generated;
        a no-op unless :meth:`attach_observability` armed something.
        """

    def train(self, trace: Trace) -> None:
        """Offline training pass (no-op for online prefetchers)."""

    def series_arm(self) -> None:
        """Start windowed learning-dynamics bookkeeping (``--series``).

        Called once by :func:`generate_prefetches` before the first
        access when a series recorder is armed.  The base
        implementation is a no-op; prefetchers with internals worth
        tracking per window (PATHFINDER's prediction accuracy, weight
        drift, table churn) override this and :meth:`series_sample`.
        """

    def series_sample(self, cumulative, gauges) -> None:
        """Contribute windowed series values at a window boundary.

        ``cumulative`` and ``gauges`` are dicts the driver passes to
        one :meth:`repro.obs.timeseries.WindowRecorder.sample` call;
        implementations add cumulative counters (diffed into per-window
        sums by the recorder) and point-in-time gauges.  Only called
        after :meth:`series_arm`.  Must not mutate prediction state —
        prefetch files stay bit-identical with the series on or off.
        """

    def process(self, access: MemoryAccess) -> List[int]:
        """Observe one demand load; return byte addresses to prefetch.

        Returning more addresses than the driver's budget is fine —
        extras are truncated in priority order (first = highest).
        """
        raise NotImplementedError

    def process_batch(self, addresses, pcs, instr_ids) -> List[List[int]]:
        """Observe a chunk of demand loads; one address list per load.

        The batch protocol of the columnar driver: ``addresses``,
        ``pcs``, and ``instr_ids`` are aligned ``int64`` column slices
        straight out of :meth:`repro.types.Trace.arrays`.  The result
        must be exactly ``[self.process(a) for a in chunk]`` — the
        parity suite drives both paths and asserts bit-identical
        prefetch files.  The one BLAS-backed tier is the frozen neural
        models (Voyager, Delta-LSTM), which run a chunk's contexts as
        row blocks: BLAS sums rows in a batch-size-dependent order, so
        their logits match :meth:`process`'s batch-1 pass within
        1e-12 rather than bitwise, while prefetch files and the state
        :meth:`process` reads next stay identical.

        This default adapts any scalar prefetcher by looping; batched
        implementations (NextLine's vectorized page math, the hoisted
        state walks of BO and SISB, the compiled loops PATHFINDER,
        Pythia and SPP run over the arrays :meth:`process` also uses,
        the neural models' row-blocked inference, the fixed-priority
        ensemble's per-member batches) override it for throughput,
        never for behaviour.
        """
        process = self.process
        return [process(MemoryAccess(instr_id=i, pc=p, address=a))
                for a, p, i in zip(np.asarray(addresses).tolist(),
                                   np.asarray(pcs).tolist(),
                                   np.asarray(instr_ids).tolist())]

    def reset(self) -> None:
        """Clear all run-time state (tables, histories); keep config."""


#: Accesses handed to :meth:`Prefetcher.process_batch` per driver
#: chunk.  Large enough to amortise the batched pipeline's per-chunk
#: passes, small enough that a chunk's working set stays cache-warm.
DEFAULT_CHUNK = 4096


#: Series name for the driver's own cumulative counter: prefetch
#: records emitted so far (per-window deltas after recording).
GEN_PREFETCHES = "gen.prefetches"


def _budget_rows(lengths: np.ndarray, addresses: np.ndarray,
                 budget: int) -> Tuple[np.ndarray, np.ndarray]:
    """Apply the per-access budget to one chunk's flattened lists.

    ``addresses`` holds the chunk's lists back to back, ``lengths[i]``
    of them for access ``i``.  Each access keeps the first occurrence
    of each block, in priority order, and only the first ``budget`` of
    those.  Returns the kept counts per access and the kept addresses.
    """
    if not len(addresses) or int(lengths.max()) <= 1:
        return lengths, addresses
    rows = np.repeat(np.arange(len(lengths)), lengths)
    column = np.arange(len(addresses)) - (np.cumsum(lengths) - lengths)[rows]
    blocks = addresses >> BLOCK_BITS
    # A record repeats a block if any earlier record of its row does;
    # rows are short, so compare each with its predecessors by distance.
    repeat = np.zeros(len(addresses), dtype=bool)
    later = np.flatnonzero(column)
    for distance in range(1, int(lengths.max())):
        later = later[column[later] >= distance]
        repeat[later] |= blocks[later] == blocks[later - distance]
    first = ~repeat
    kept_rows = rows[first]
    counts = np.bincount(kept_rows, minlength=len(lengths))
    rank = np.arange(len(kept_rows)) - (np.cumsum(counts) - counts)[kept_rows]
    return (np.minimum(counts, budget),
            addresses[first][rank < budget])


def generate_prefetches(prefetcher: Prefetcher, trace: Trace,
                        budget: int = 2,
                        train: bool = True,
                        chunk: int = DEFAULT_CHUNK,
                        recorder=None) -> PrefetchFile:
    """Run ``prefetcher`` over ``trace`` and emit its prefetch file.

    The driver is columnar: the trace's struct-of-arrays view is
    sliced into ``chunk``-sized column windows and handed to
    :meth:`Prefetcher.process_batch` (scalar prefetchers transparently
    loop via the base implementation).  Each chunk's per-access lists
    are flattened once into ``int64`` columns, and one vectorised pass
    applies the budget: each access keeps the first occurrence of each
    block, in priority order (the first address seen for a block wins),
    and only the first ``budget`` of those.  Any chunk size produces
    the identical prefetch file.

    Args:
        prefetcher: The prefetcher to drive.
        trace: The demand-load trace, in program order.
        budget: Maximum prefetches kept per triggering access
            (paper: 2).
        train: Whether to invoke the prefetcher's offline
            :meth:`Prefetcher.train` hook first.
        chunk: Accesses per :meth:`Prefetcher.process_batch` call.
        recorder: Optional :class:`~repro.obs.timeseries.WindowRecorder`.
            When given, the driver arms the prefetcher's
            :meth:`Prefetcher.series_arm` bookkeeping, splits chunks at
            window boundaries, and emits one sample per window (its own
            emitted-prefetch counter plus whatever the prefetcher's
            :meth:`Prefetcher.series_sample` contributes).  Pure
            observation: the returned prefetch file is bit-identical
            with or without it.

    Returns:
        The prefetch file, one CSR row per trace access (iterating it
        yields :class:`~repro.types.PrefetchRequest` records in trace
        order).

    Raises:
        PrefetchFileError: An unguarded prefetcher raised mid-trace, or
            a chunk's result is malformed (not one list per access, or
            an address that does not fit in ``int64``); the original
            exception is chained, with the offending chunk in the
            message.  Already-typed :class:`ReproError` exceptions pass
            through unchanged.  (The harness wraps prefetchers in a
            quarantining
            :class:`~repro.resilience.guard.GuardedPrefetcher`, which
            degrades instead of raising.)
    """
    if budget <= 0:
        raise ConfigError("prefetch budget must be positive")
    if chunk <= 0:
        raise ConfigError("driver chunk size must be positive")
    if train:
        prefetcher.train(trace)
    if recorder is not None:
        prefetcher.series_arm()
    window = recorder.window if recorder is not None else 0
    arrays = trace.arrays()
    instr_ids = arrays.instr_ids
    n = len(arrays)
    counts: List[np.ndarray] = []
    kept: List[np.ndarray] = []
    emitted = 0
    start = 0
    while start < n:
        end = min(start + chunk, n)
        if window:
            # Never let a chunk straddle a window boundary, so samples
            # land exactly on multiples of the recorder's window.
            end = min(end, (start // window + 1) * window)
        try:
            per_access = prefetcher.process_batch(
                arrays.addresses[start:end],
                arrays.pcs[start:end],
                instr_ids[start:end])
            if len(per_access) != end - start:
                raise ValueError(
                    f"process_batch returned {len(per_access)} address "
                    f"lists for {end - start} accesses")
            lengths = np.fromiter(map(len, per_access), dtype=np.int64,
                                  count=end - start)
            flat = np.fromiter(chain.from_iterable(per_access),
                               dtype=np.int64, count=int(lengths.sum()))
        except ReproError:
            raise
        except Exception as exc:
            raise PrefetchFileError(
                f"{prefetcher.name} failed on access chunk "
                f"[{start}, {end}) (instr_ids {instr_ids[start]}.."
                f"{instr_ids[end - 1]}): "
                f"{type(exc).__name__}: {exc}") from exc
        row_counts, addresses = _budget_rows(lengths, flat, budget)
        counts.append(row_counts)
        kept.append(addresses)
        emitted += len(addresses)
        if window and (end % window == 0 or end == n):
            cumulative = {GEN_PREFETCHES: emitted}
            gauges: dict = {}
            prefetcher.series_sample(cumulative, gauges)
            recorder.sample(end, cumulative=cumulative, gauges=gauges)
        start = end
    offsets = np.zeros(n + 1, dtype=np.int64)
    if counts:
        np.cumsum(np.concatenate(counts), out=offsets[1:])
    addresses = (np.concatenate(kept) if kept
                 else np.empty(0, dtype=np.int64))
    return PrefetchFile(offsets, addresses, instr_ids)
