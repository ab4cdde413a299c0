"""Trace transforms modelling the noise sources of paper §2.3.

The paper motivates neural prefetching with tolerance to noise from
(a) out-of-order execution locally reordering loads and (b) co-running
threads interleaving their accesses into the shared-LLC stream.  These
transforms inject exactly those effects into any trace:

- :func:`reorder_accesses` — bounded local shuffling (OoO windows).
- :func:`interleave_traces` — merge several programs' traces into one
  shared-LLC access stream, with per-program address-space and PC
  isolation.
- :func:`drop_accesses` — random thinning (models filtered/ sampled
  access streams).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import ConfigError
from ..types import Trace


def reorder_accesses(trace: Trace, window: int, seed: int = 0,
                     name: str = "") -> Trace:
    """Shuffle accesses within consecutive windows of the trace.

    Models out-of-order issue: loads within a ``window``-sized group
    may retire against the cache in any order, perturbing the delta
    sequences every table-keyed prefetcher relies on, while leaving the
    *set* of accesses (and instruction ids, re-sorted) unchanged.

    Args:
        trace: Source trace.
        window: Reorder window in accesses (1 = identity).
        seed: RNG seed.
        name: New trace name (default: derived).
    """
    if window < 1:
        raise ConfigError("reorder window must be >= 1")
    rng = np.random.default_rng(seed)
    n = len(trace)
    instr_ids = np.empty(n, dtype=np.int64)
    source = np.empty(n, dtype=np.int64)
    for start in range(0, n, window):
        stop = min(start + window, n)
        # The window's sorted ids, handed to its loads in drawn order.
        instr_ids[start:stop] = np.sort(trace.instr_ids[start:stop])
        source[start:stop] = start + rng.permutation(stop - start)
    return Trace(name or f"{trace.name}+reorder{window}", instr_ids,
                 trace.pcs[source], trace.addresses[source],
                 total_instructions=trace.instruction_count)


def interleave_traces(traces: Sequence[Trace], seed: int = 0,
                      name: str = "") -> Trace:
    """Merge several programs into one shared-LLC access stream.

    Each input trace is placed in its own address space (high bits) and
    PC space, then the streams are merged in instruction-id order —
    the interference pattern a shared-LLC prefetcher actually sees
    when programs co-run.

    Args:
        traces: Per-program traces (at least two).
        seed: Tie-break seed for equal instruction ids.
        name: New trace name (default: joined).
    """
    if len(traces) < 2:
        raise ConfigError("interleaving needs at least two traces")
    rng = np.random.default_rng(seed)
    instr_ids = np.concatenate([trace.instr_ids for trace in traces])
    pcs = np.concatenate([trace.pcs | (core << 32)
                          for core, trace in enumerate(traces)])
    addresses = np.concatenate([trace.addresses | (core << 44)
                                for core, trace in enumerate(traces)])
    # Stable merge by instruction id with random tie-breaks, then
    # re-stamp strictly increasing ids.
    tie = rng.random(len(instr_ids))
    order = np.lexsort((tie, instr_ids))
    n = len(order)
    return Trace(name or "+".join(t.name for t in traces),
                 4 * np.arange(1, n + 1, dtype=np.int64), pcs[order],
                 addresses[order], total_instructions=n * 4 + 1)


def drop_accesses(trace: Trace, fraction: float, seed: int = 0,
                  name: str = "") -> Trace:
    """Randomly remove a fraction of accesses (stream thinning)."""
    if not 0.0 <= fraction < 1.0:
        raise ConfigError("drop fraction must be in [0, 1)")
    rng = np.random.default_rng(seed)
    keep = rng.random(len(trace)) >= fraction
    if not keep.any():
        raise ConfigError("drop fraction removed every access")
    return Trace(name or f"{trace.name}-thin{fraction:.2f}",
                 trace.instr_ids[keep], trace.pcs[keep],
                 trace.addresses[keep],
                 total_instructions=trace.instruction_count)
