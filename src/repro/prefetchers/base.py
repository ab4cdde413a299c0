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
from typing import List, NamedTuple, Sequence, Tuple

import numpy as np

from ..errors import ConfigError, PrefetchFileError, ReproError
from ..types import BLOCK_BITS, MemoryAccess, PrefetchFile, Trace


class Rows(NamedTuple):
    """One chunk's prefetches in CSR form, as
    :meth:`Prefetcher.process_batch` returns them: access ``i`` of the
    chunk has ``counts[i]`` addresses, stored back to back in
    ``addresses`` in priority order (first = highest).  Both columns are
    1-D ``int64`` arrays."""

    counts: np.ndarray
    addresses: np.ndarray

    @classmethod
    def empty(cls, n: int) -> "Rows":
        """``n`` accesses without prefetches."""
        return cls(np.zeros(n, dtype=np.int64), np.empty(0, dtype=np.int64))

    @classmethod
    def from_lists(cls, per_access: Sequence[Sequence[int]]) -> "Rows":
        """One address list per access (:meth:`Prefetcher.process`'s
        shape), flattened once."""
        counts = np.fromiter(map(len, per_access), dtype=np.int64,
                             count=len(per_access))
        return cls(counts, np.fromiter(chain.from_iterable(per_access),
                                       dtype=np.int64,
                                       count=int(counts.sum())))

    @classmethod
    def from_padded(cls, counts: np.ndarray, targets: np.ndarray) -> "Rows":
        """A compiled loop's output: row ``i`` of the 2-D ``targets``
        starts with access ``i``'s ``counts[i]`` addresses, and one mask
        drops the padding after them."""
        width = targets.shape[1]
        return cls(counts, targets[np.arange(width) < counts[:, None]])


def check_rows(rows, n: int) -> Rows:
    """``rows`` as :class:`Rows`, if it is one chunk's rows for ``n``
    accesses.

    Raises:
        ValueError: ``rows`` is not two 1-D ``int64`` columns, ``counts``
            has another length or a negative entry, or the counts do not
            add up to the addresses.
    """
    counts, addresses = rows
    for name, column in (("counts", counts), ("addresses", addresses)):
        if not (isinstance(column, np.ndarray) and column.ndim == 1
                and column.dtype == np.int64):
            raise ValueError(f"process_batch {name} are not a 1-D int64 "
                             f"array")
    if len(counts) != n:
        raise ValueError(f"process_batch returned {len(counts)} counts "
                         f"for {n} accesses")
    if n and int(counts.min()) < 0:
        raise ValueError("process_batch returned a negative count")
    if int(counts.sum()) != len(addresses):
        raise ValueError(f"process_batch counts add up to "
                         f"{int(counts.sum())}, not to its "
                         f"{len(addresses)} addresses")
    return Rows(counts, addresses)


class Prefetcher:
    """Base class for all prefetchers.

    An instance serves one trace: the harness builds a fresh one per
    cell (:func:`repro.harness.make_prefetcher`), and
    :func:`generate_prefetches` drives it once over the trace.
    Subclasses implement :meth:`process`; stateful prefetchers keep
    their tables/models as instance attributes.  Offline-trained
    prefetchers (Delta-LSTM, Voyager) additionally override
    :meth:`train` which the driver calls before the replay pass.
    """

    #: Human-readable name used in reports.
    name = "base"

    def publish_telemetry(self, obs) -> None:
        """Push accumulated internals into ``obs``, an enabled
        :class:`repro.obs.Observability` bundle.

        Called by the harness once, after the prefetch file is
        generated.  The base implementation records nothing;
        prefetchers with internal state worth exporting (PATHFINDER's
        SNN, the guard's degradation) override it.
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

    def process_batch(self, addresses, pcs, instr_ids) -> Rows:
        """Observe a chunk of demand loads; their prefetches as
        :class:`Rows`.

        The batch protocol of the columnar driver: ``addresses``,
        ``pcs``, and ``instr_ids`` are aligned ``int64`` column slices
        straight off the :class:`~repro.types.Trace`.  Row ``i``
        must be exactly ``self.process(a)`` for the chunk's access ``i``
        — the parity suite drives both paths and asserts bit-identical
        prefetch files.  The one BLAS-backed tier is the frozen neural
        models (Voyager, Delta-LSTM), which run a chunk's contexts as
        row blocks: BLAS sums rows in a batch-size-dependent order, so
        their logits match :meth:`process`'s batch-1 pass within
        1e-12 rather than bitwise, while prefetch files and the state
        :meth:`process` reads next stay identical.

        This default adapts any scalar prefetcher by looping and
        flattening the lists once; batched implementations (NextLine's
        vectorized page math, the hoisted state walks of BO and SISB,
        the compiled loops PATHFINDER, Pythia and SPP run over the
        arrays :meth:`process` also uses, the neural models' row-blocked
        inference, the fixed-priority ensemble's per-member batches)
        override it for throughput, never for behaviour.
        """
        process = self.process
        return Rows.from_lists([
            process(MemoryAccess(instr_id=i, pc=p, address=a))
            for a, p, i in zip(np.asarray(addresses).tolist(),
                               np.asarray(pcs).tolist(),
                               np.asarray(instr_ids).tolist())])


#: Accesses handed to :meth:`Prefetcher.process_batch` per driver
#: chunk.  Large enough to amortise the batched pipeline's per-chunk
#: passes, small enough that a chunk's working set stays cache-warm.
DEFAULT_CHUNK = 4096


#: Series name for the driver's own cumulative counter: prefetch
#: records emitted so far (per-window deltas after recording).
GEN_PREFETCHES = "gen.prefetches"


def _budget_rows(counts: np.ndarray, addresses: np.ndarray,
                 budget: int) -> Tuple[np.ndarray, np.ndarray]:
    """Apply the per-access budget to one chunk's rows.

    Each access keeps the first occurrence of each block, in priority
    order, and only the first ``budget`` of those.  Returns the kept
    counts per access and the indices of the kept records.
    """
    if not len(addresses) or int(counts.max()) <= 1:
        return counts, np.arange(len(addresses))
    rows = np.repeat(np.arange(len(counts)), counts)
    column = np.arange(len(addresses)) - (np.cumsum(counts) - counts)[rows]
    blocks = addresses >> BLOCK_BITS
    # A record repeats a block if any earlier record of its row does;
    # rows are short, so compare each with its predecessors by distance.
    repeat = np.zeros(len(addresses), dtype=bool)
    later = np.flatnonzero(column)
    for distance in range(1, int(counts.max())):
        later = later[column[later] >= distance]
        repeat[later] |= blocks[later] == blocks[later - distance]
    first = np.flatnonzero(~repeat)
    kept_rows = rows[first]
    kept = np.bincount(kept_rows, minlength=len(counts))
    rank = np.arange(len(first)) - (np.cumsum(kept) - kept)[kept_rows]
    return np.minimum(kept, budget), first[rank < budget]


def generate_prefetches(prefetcher: Prefetcher, trace: Trace,
                        budget: int = 2,
                        train: bool = True,
                        chunk: int = DEFAULT_CHUNK,
                        recorder=None) -> PrefetchFile:
    """Run ``prefetcher`` over ``trace`` and emit its prefetch file.

    The driver is columnar: the trace's struct-of-arrays view is
    sliced into ``chunk``-sized column windows and handed to
    :meth:`Prefetcher.process_batch` (scalar prefetchers transparently
    loop via the base implementation).  Each chunk's :class:`Rows` are
    checked (:func:`check_rows`), and one vectorised pass applies the
    budget: each access keeps the first occurrence of each block, in
    priority order (the first address seen for a block wins), and only
    the first ``budget`` of those.  Any chunk size produces the
    identical prefetch file.

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
        PrefetchFileError: An unguarded prefetcher raised mid-trace
            (an address that does not fit in ``int64`` included), or a
            chunk's result is not its :class:`Rows`; the original
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
    instr_ids = trace.instr_ids
    n = len(trace)
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
            rows = check_rows(prefetcher.process_batch(
                trace.addresses[start:end],
                trace.pcs[start:end],
                instr_ids[start:end]), end - start)
        except ReproError:
            raise
        except Exception as exc:
            raise PrefetchFileError(
                f"{prefetcher.name} failed on access chunk "
                f"[{start}, {end}) (instr_ids {instr_ids[start]}.."
                f"{instr_ids[end - 1]}): "
                f"{type(exc).__name__}: {exc}") from exc
        row_counts, records = _budget_rows(*rows, budget)
        counts.append(row_counts)
        kept.append(rows.addresses[records])
        emitted += len(records)
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
