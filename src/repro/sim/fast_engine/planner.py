"""The replay plan shared by both replay loops and the multicore simulator.

Each replay splits into a *plan* (derived once from the trace columns
and the prefetch file, no simulator state involved) and an *execution*
(the compiled kernel, or the reference loop when the kernel cannot
run; :func:`repro.sim.fast_engine.batch._fallback_reason` decides
which).  The plan captures two things:

1. **Invalid records** — prefetch records with a negative address
   (a corrupt file, or a buggy prefetcher slipping past the guard).
   They are dropped before anything else and counted as
   ``pf_dropped``; the plan lists them in file order so the simulator
   can account for them (and trace ``pf.dropped reason=invalid``).

2. **Trigger schedule** — the blocks each trace position issues, in
   CSR form (``pf_starts``/``pf_blocks``), which both the C kernel
   and the reference loop walk.  The schedule is keyed by instruction
   id, as the ML-DPC format is: each trigger id keeps its first
   ``max_per_access`` valid records in file order (no block dedup),
   and every access carrying that id issues them — so on a trace with
   duplicate ids, each duplicate issues the id's merged list.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

import numpy as np

from ...errors import PrefetchFileError
from ...types import BLOCK_BITS, PrefetchFile, Trace


class ReplayPlan(NamedTuple):
    """Everything either engine needs to execute one replay."""

    #: CSR trigger schedule: ``pf_blocks[pf_starts[i]:pf_starts[i+1]]``
    #: are the blocks access ``i`` issues, in issue order.
    pf_starts: np.ndarray
    pf_blocks: np.ndarray
    #: File-order indices of the records dropped for a negative address.
    invalid: np.ndarray


def _schedule(trace: Trace, pfile: PrefetchFile,
              max_per_access: int) -> Tuple[np.ndarray, np.ndarray]:
    """The CSR trigger schedule of the file's valid records."""
    valid = pfile.addresses >= 0
    triggers = pfile.triggers()[valid]
    addresses = pfile.addresses[valid]
    n = len(trace)
    pf_starts = np.zeros(n + 1, dtype=np.int64)
    if not len(addresses):
        return pf_starts, np.empty(0, dtype=np.int64)
    # Group the records by trigger id, file order kept within an id,
    # and keep each id's first ``max_per_access``.
    order = np.argsort(triggers, kind="stable")
    triggers, addresses = triggers[order], addresses[order]
    ids, first, counts = np.unique(triggers, return_index=True,
                                   return_counts=True)
    rank = np.arange(len(triggers)) - np.repeat(first, counts)
    addresses = addresses[rank < max_per_access]
    counts = np.minimum(counts, max_per_access)
    first = np.cumsum(counts) - counts
    # Every access issues its id's list.
    k = np.minimum(np.searchsorted(ids, trace.instr_ids), len(ids) - 1)
    hit = ids[k] == trace.instr_ids
    row_counts = np.where(hit, counts[k], 0)
    np.cumsum(row_counts, out=pf_starts[1:])
    src = np.where(hit, first[k], 0)
    gather = (np.repeat(src - pf_starts[:-1], row_counts)
              + np.arange(pf_starts[-1]))
    return pf_starts, addresses[gather] >> BLOCK_BITS


def plan_replay(trace: Trace, pfile: PrefetchFile,
                max_per_access: int) -> ReplayPlan:
    """Build the :class:`ReplayPlan` for replaying ``pfile`` on a trace.

    ``pfile`` must be laid out over this trace's accesses (see
    :meth:`~repro.types.PrefetchFile.for_trace`).  One vectorised pass
    drops negative addresses, trims each trigger id to its first
    ``max_per_access`` records in file order, and lays the survivors
    out per access.  A file generated on a trace with strictly
    increasing ids and within the budget is already its own schedule:
    its offsets pass straight through.  Pure function of the trace
    columns and the file; which loop runs it is the batch driver's
    choice.

    Raises:
        PrefetchFileError: the file's rows do not match the trace's
            access count.
    """
    n = len(trace)
    if len(pfile.offsets) != n + 1:
        raise PrefetchFileError(
            f"prefetch file covers {len(pfile.offsets) - 1} accesses; "
            f"the trace has {n}")
    invalid = np.flatnonzero(pfile.addresses < 0)
    if (not len(invalid) and trace.monotone()
            and np.diff(pfile.offsets).max(initial=0) <= max_per_access):
        pf_starts = pfile.offsets
        pf_blocks = pfile.addresses >> BLOCK_BITS
    else:
        pf_starts, pf_blocks = _schedule(trace, pfile, max_per_access)
    return ReplayPlan(pf_starts, pf_blocks, invalid)
