"""Columnar replay planner for the batch engine.

``engine="batch"`` splits each replay into a *plan* (derived once from
the trace columns and the prefetch file, no simulator state involved)
and an *execution* (the compiled kernel, or the reference loop when
the kernel cannot run).  The plan captures two things:

1. **Eligibility** — whether the compiled kernel's preconditions hold.
   The kernel assumes strictly increasing instruction ids (its ROB is
   a ring buffer), non-negative block numbers (C ``%`` differs from
   Python's on negatives), and ids small enough that every derived
   cycle count stays well inside the 2^53 window where ``double``
   holds integers exactly.  Ineligible plans run on the reference
   loop — slower, never wrong.

2. **Trigger alignment** — the per-access prefetch lists flattened to
   CSR form (``pf_starts``/``pf_blocks``): one searchsorted pass maps
   ``by_trigger`` keys onto trace positions, and triggers naming no
   trace instruction are dropped, exactly like the reference loop's
   dict probe.  The flat arrays are what the C kernel walks.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from ...types import TraceArrays

#: Instruction ids above this bound fall back to the reference loop:
#: the kernel mixes cycle integers into ``double`` arithmetic, and
#: keeping ids (and therefore every derived dispatch/completion value
#: for any realistic trace) far below 2^53 makes that mixing exact.
MAX_KERNEL_INSTR_ID = 1 << 44


class ReplayPlan(NamedTuple):
    """Everything the batch driver needs to execute one replay."""

    #: Whether the compiled kernel may run this plan.
    kernel_eligible: bool
    #: Human-readable reason when ``kernel_eligible`` is false.
    fallback_reason: Optional[str]
    #: CSR prefetch alignment: ``pf_blocks[pf_starts[i]:pf_starts[i+1]]``
    #: are the blocks access ``i`` triggers (empty arrays when the
    #: replay is prefetch-free or the plan is ineligible).
    pf_starts: np.ndarray
    pf_blocks: np.ndarray


def align_triggers(arrays: TraceArrays,
                   by_trigger: Dict[int, List[int]],
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten ``by_trigger`` into CSR arrays over trace positions.

    Returns ``(pf_starts, pf_blocks)``.  Requires monotone instruction
    ids (positions are then unique); triggers naming no trace
    instruction are dropped.
    """
    n = len(arrays)
    pf_starts = np.zeros(n + 1, dtype=np.int64)
    if not by_trigger or n == 0:
        return pf_starts, np.empty(0, dtype=np.int64)
    ids = arrays.instr_ids
    keys = np.fromiter(by_trigger.keys(), dtype=np.int64,
                       count=len(by_trigger))
    pos = np.minimum(np.searchsorted(ids, keys), np.int64(n - 1))
    hit_idx = np.nonzero(ids[pos] == keys)[0]
    # Monotone ids make hit positions unique, so sorting the surviving
    # keys by position gives the CSR fill order in one pass.
    order = hit_idx[np.argsort(pos[hit_idx], kind="stable")]
    counts = np.zeros(n + 1, dtype=np.int64)
    flat: List[int] = []
    extend = flat.extend
    keys_l = keys.tolist()
    pos_l = pos.tolist()
    for idx in order.tolist():
        blocks = by_trigger[keys_l[idx]]
        counts[pos_l[idx] + 1] = len(blocks)
        extend(blocks)
    np.cumsum(counts, out=pf_starts)
    pf_blocks = np.asarray(flat, dtype=np.int64)
    return pf_starts, pf_blocks


def plan_replay(arrays: TraceArrays,
                by_trigger: Dict[int, List[int]]) -> ReplayPlan:
    """Build the :class:`ReplayPlan` for one replay.

    Pure function of the trace columns and the prefetch alignment;
    the warm-state and kernel-availability checks stay with the
    driver, which can see the simulator.
    """
    n = len(arrays)
    empty = np.empty(0, dtype=np.int64)
    if n == 0:
        return ReplayPlan(True, None, np.zeros(1, dtype=np.int64), empty)
    if not arrays.monotone():
        return ReplayPlan(False, "non-monotone instruction ids",
                          np.zeros(n + 1, dtype=np.int64), empty)
    if int(arrays.instr_ids[-1]) > MAX_KERNEL_INSTR_ID:
        return ReplayPlan(False, "instruction ids exceed kernel bound",
                          np.zeros(n + 1, dtype=np.int64), empty)
    if int(arrays.blocks.min()) < 0:
        return ReplayPlan(False, "negative block numbers",
                          np.zeros(n + 1, dtype=np.int64), empty)
    pf_starts, pf_blocks = align_triggers(arrays, by_trigger)
    return ReplayPlan(True, None, pf_starts, pf_blocks)
