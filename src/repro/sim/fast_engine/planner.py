"""The replay plan shared by both engines and the multicore simulator.

Each replay splits into a *plan* (derived once from the trace columns
and the prefetch file, no simulator state involved) and an *execution*
(the compiled kernel, or the reference loop when the kernel cannot
run).  The plan captures three things:

1. **Eligibility** — whether the compiled kernel's preconditions hold.
   The kernel assumes strictly increasing instruction ids (its ROB is
   a ring buffer), non-negative block numbers (C ``%`` differs from
   Python's on negatives), and ids small enough that every derived
   cycle count stays well inside the 2^53 window where ``double``
   holds integers exactly.  Ineligible plans run on the reference
   loop — slower, never wrong.

2. **Invalid records** — prefetch records with a negative address
   (a corrupt file, or a buggy prefetcher slipping past the guard).
   They are dropped before anything else and counted as
   ``pf_dropped``; the plan lists them in file order so the simulator
   can account for them (and trace ``pf.dropped reason=invalid``).

3. **Trigger schedule** — the blocks each trace position issues, in
   CSR form (``pf_starts``/``pf_blocks``), which both the C kernel
   and the reference loop walk.  The schedule is keyed by instruction
   id, as the ML-DPC format is: each trigger id keeps its first
   ``max_per_access`` valid records in file order (no block dedup),
   and every access carrying that id issues them — so on a trace with
   duplicate ids, each duplicate issues the id's merged list.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

import numpy as np

from ...errors import PrefetchFileError
from ...types import BLOCK_BITS, PrefetchFile, TraceArrays

#: Instruction ids above this bound fall back to the reference loop:
#: the kernel mixes cycle integers into ``double`` arithmetic, and
#: keeping ids (and therefore every derived dispatch/completion value
#: for any realistic trace) far below 2^53 makes that mixing exact.
MAX_KERNEL_INSTR_ID = 1 << 44


class ReplayPlan(NamedTuple):
    """Everything either engine needs to execute one replay."""

    #: Whether the compiled kernel may run this plan.
    kernel_eligible: bool
    #: Human-readable reason when ``kernel_eligible`` is false.
    fallback_reason: Optional[str]
    #: CSR trigger schedule: ``pf_blocks[pf_starts[i]:pf_starts[i+1]]``
    #: are the blocks access ``i`` issues, in issue order.
    pf_starts: np.ndarray
    pf_blocks: np.ndarray
    #: File-order indices of the records dropped for a negative address.
    invalid: np.ndarray


def _kernel_fallback_reason(arrays: TraceArrays) -> Optional[str]:
    n = len(arrays)
    if n == 0:
        return None
    if not arrays.monotone():
        return "non-monotone instruction ids"
    if int(arrays.instr_ids[-1]) > MAX_KERNEL_INSTR_ID:
        return "instruction ids exceed kernel bound"
    if int(arrays.blocks.min()) < 0:
        return "negative block numbers"
    return None


def _schedule(arrays: TraceArrays, pfile: PrefetchFile,
              max_per_access: int) -> Tuple[np.ndarray, np.ndarray]:
    """The CSR trigger schedule of the file's valid records."""
    valid = pfile.addresses >= 0
    triggers = pfile.triggers()[valid]
    addresses = pfile.addresses[valid]
    n = len(arrays)
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
    k = np.minimum(np.searchsorted(ids, arrays.instr_ids), len(ids) - 1)
    hit = ids[k] == arrays.instr_ids
    row_counts = np.where(hit, counts[k], 0)
    np.cumsum(row_counts, out=pf_starts[1:])
    src = np.where(hit, first[k], 0)
    gather = (np.repeat(src - pf_starts[:-1], row_counts)
              + np.arange(pf_starts[-1]))
    return pf_starts, addresses[gather] >> BLOCK_BITS


def plan_replay(arrays: TraceArrays, pfile: PrefetchFile,
                max_per_access: int) -> ReplayPlan:
    """Build the :class:`ReplayPlan` for replaying ``pfile`` on a trace.

    ``pfile`` must be laid out over this trace's accesses (see
    :meth:`~repro.types.PrefetchFile.for_trace`).  One vectorised pass
    drops negative addresses, trims each trigger id to its first
    ``max_per_access`` records in file order, and lays the survivors
    out per access.  A file generated on a trace with strictly
    increasing ids and within the budget is already its own schedule:
    its offsets pass straight through.  Pure function of the trace
    columns and the file; the warm-state and kernel-availability
    checks stay with the batch driver, which can see the simulator.

    Raises:
        PrefetchFileError: the file's rows do not match the trace's
            access count.
    """
    n = len(arrays)
    if len(pfile.offsets) != n + 1:
        raise PrefetchFileError(
            f"prefetch file covers {len(pfile.offsets) - 1} accesses; "
            f"the trace has {n}")
    reason = _kernel_fallback_reason(arrays)
    invalid = np.flatnonzero(pfile.addresses < 0)
    if (not len(invalid) and arrays.monotone()
            and np.diff(pfile.offsets).max(initial=0) <= max_per_access):
        pf_starts = pfile.offsets
        pf_blocks = pfile.addresses >> BLOCK_BITS
    else:
        pf_starts, pf_blocks = _schedule(arrays, pfile, max_per_access)
    return ReplayPlan(reason is None, reason, pf_starts, pf_blocks, invalid)
