"""Signature Path Prefetcher (Kim et al., MICRO 2016) — history-based
delta baseline with confidence-throttled lookahead.

SPP compresses each page's recent delta history into a 12-bit
*signature*; a Signature Table maps (page → signature, last offset) and
a Pattern Table maps signature → per-delta occurrence counters.  On an
access, SPP walks a speculative *path*: it predicts the most likely
delta for the current signature, multiplies path confidence by that
delta's hit ratio, advances the signature as if the delta happened, and
repeats while confidence stays above the prefetch threshold.  This
adaptive depth is what gives SPP the paper's observed profile: the
highest accuracy of all baselines, but the lowest coverage (Table 6 —
it issues far fewer prefetches).

Both tables are flat arrays with an LRU stamp per row, and each touch
takes a fresh clock value, so the least recently used row is the one
with the lowest stamp.  :meth:`SPPPrefetcher.process` and the compiled
SPP loop (:mod:`repro.snn.ckernel`) share them, so either can take over
from the other mid-trace.  ``process()`` scans the Signature Table and
takes ``np.argmin`` of the stamps; the loop finds the same rows through
a page index and LRU lists of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..errors import ConfigError
from ..snn.ckernel import (SPP_ARRAYS, SPPArgs, index_slots, load_kernel,
                           pointer, scratch)
from ..types import BLOCKS_PER_PAGE, MemoryAccess, compose_address
from .base import Prefetcher, Rows

_SIGNATURE_BITS = 12
_SIGNATURE_MASK = (1 << _SIGNATURE_BITS) - 1
#: Distinct nonzero in-page deltas (-63..63): the most (delta, count)
#: slots a Pattern Table row can fill.
DELTA_SLOTS = 2 * (BLOCKS_PER_PAGE - 1)
#: Largest Signature Table (256 times the default): its rows are
#: allocated up front, and :meth:`SPPPrefetcher.process` scans them on
#: every access.
MAX_SIGNATURE_TABLE_SIZE = 65536


def advance_signature(signature: int, delta: int) -> int:
    """SPP's signature update: shift-and-xor with the new delta."""
    return ((signature << 3) ^ (delta & 0x3F)) & _SIGNATURE_MASK


@dataclass(frozen=True)
class SPPConfig:
    """SPP knobs (defaults follow the MICRO'16 paper's shape).

    Attributes:
        signature_table_size: Tracked pages (LRU), at most
            :data:`MAX_SIGNATURE_TABLE_SIZE`.
        pattern_table_size: Distinct signatures tracked (LRU).  There
            are only 4,096 signatures, so a larger table never fills.
        max_counter: Saturation of the per-delta occurrence counters.
        prefetch_threshold: Minimum path confidence to issue.
        max_degree: Hard cap on prefetches per access (paper budget: 2).
        lookahead_depth: Maximum speculative path length.
    """

    signature_table_size: int = 256
    pattern_table_size: int = 512
    max_counter: int = 15
    prefetch_threshold: float = 0.25
    max_degree: int = 2
    lookahead_depth: int = 4

    def __post_init__(self) -> None:
        if not 1 <= self.signature_table_size <= MAX_SIGNATURE_TABLE_SIZE:
            raise ConfigError(f"signature_table_size must be in "
                              f"[1, {MAX_SIGNATURE_TABLE_SIZE}]")
        if self.pattern_table_size < 1 or self.max_counter < 1:
            raise ConfigError("pattern_table_size and max_counter must be "
                              ">= 1")
        if not 0.0 < self.prefetch_threshold <= 1.0:
            raise ConfigError("prefetch_threshold must be in (0, 1]")
        if self.max_degree < 1 or self.lookahead_depth < 1:
            raise ConfigError("degrees must be >= 1")


class SPPPrefetcher(Prefetcher):
    """Signature-path delta prefetcher with confidence throttling."""

    name = "spp"

    def __init__(self, config: Optional[SPPConfig] = None):
        self.config = config or SPPConfig()
        self.reset()

    def reset(self) -> None:
        cfg = self.config
        # Signature Table: row r tracks page _st_page[r]; rows
        # [0, _st_rows) are in use.
        (self._st_page, self._st_signature, self._st_offset,
         self._st_stamp) = np.zeros((4, cfg.signature_table_size),
                                    dtype=np.int64)
        self._st_rows = self._st_clock = 0
        # Pattern Table: _pt_row maps each signature to its row, or -1.
        # A row holds its signature, its first _pt_slots (delta, count)
        # slots in first-insertion order (the order the best-delta tie
        # rule reads), their total and a stamp.
        rows = min(cfg.pattern_table_size, 1 << _SIGNATURE_BITS)
        self._pt_row = np.full(1 << _SIGNATURE_BITS, -1, dtype=np.int64)
        (self._pt_signature, self._pt_slots, self._pt_total,
         self._pt_stamp) = np.zeros((4, rows), dtype=np.int64)
        self._pt_delta = np.zeros((rows, DELTA_SLOTS), dtype=np.int8)
        self._pt_count = np.zeros((rows, DELTA_SLOTS), dtype=np.int64)
        self._pt_rows = self._pt_clock = 0

    # -- table maintenance ---------------------------------------------------

    def _pattern_row(self, signature: int, create: bool) -> int:
        """``signature``'s row, refreshing its stamp; if absent, -1, or
        with ``create`` a new empty row (evicting the least recently
        used one when the table is full)."""
        row = int(self._pt_row[signature])
        if row < 0:
            if not create:
                return -1
            if self._pt_rows < len(self._pt_stamp):
                row = self._pt_rows
                self._pt_rows += 1
            else:
                row = int(np.argmin(self._pt_stamp))
                self._pt_row[self._pt_signature[row]] = -1
            self._pt_row[signature] = row
            self._pt_signature[row] = signature
            self._pt_slots[row] = self._pt_total[row] = 0
        self._pt_clock += 1
        self._pt_stamp[row] = self._pt_clock
        return row

    def _record(self, signature: int, delta: int) -> None:
        """Count ``delta`` under ``signature``."""
        row = self._pattern_row(signature, create=True)
        n = int(self._pt_slots[row])
        deltas, counts = self._pt_delta[row], self._pt_count[row]
        hits = np.flatnonzero(deltas[:n] == delta)
        slot = int(hits[0]) if hits.size else n
        if slot == n:
            deltas[slot], counts[slot] = delta, 0
            n = self._pt_slots[row] = n + 1
        if int(counts[slot]) < self.config.max_counter:
            counts[slot] += 1
            self._pt_total[row] += 1
        else:
            # Saturated: age everything to keep ratios adaptive.
            counts[:n] = np.maximum(counts[:n] // 2, 1)
            counts[slot] += 1
            self._pt_total[row] = counts[:n].sum()

    # -- per-access ------------------------------------------------------------

    def process(self, access: MemoryAccess) -> List[int]:
        cfg = self.config
        page, offset = access.page, access.offset
        hits = np.flatnonzero(self._st_page[:self._st_rows] == page)
        if hits.size:
            row = int(hits[0])
        elif self._st_rows < len(self._st_page):
            row = self._st_rows
            self._st_rows += 1
        else:
            row = int(np.argmin(self._st_stamp))
        self._st_clock += 1
        self._st_stamp[row] = self._st_clock
        if not hits.size:
            # The page's first access: a new row, and no delta yet.
            self._st_page[row], self._st_signature[row] = page, 0
            self._st_offset[row] = offset
            return []
        delta = offset - int(self._st_offset[row])
        if delta == 0:
            return []
        signature = int(self._st_signature[row])
        self._record(signature, delta)
        signature = advance_signature(signature, delta)
        self._st_signature[row], self._st_offset[row] = signature, offset

        # Speculative path walk with multiplicative confidence.  The
        # best delta is the first maximal count in slot order.
        addresses: List[int] = []
        confidence = 1.0
        for _ in range(cfg.lookahead_depth):
            pattern = self._pattern_row(signature, create=False)
            if pattern < 0:
                break
            counts = self._pt_count[pattern, :self._pt_slots[pattern]]
            best = int(np.argmax(counts))
            confidence *= int(counts[best]) / int(self._pt_total[pattern])
            if confidence < cfg.prefetch_threshold:
                break
            best_delta = int(self._pt_delta[pattern, best])
            offset += best_delta
            if not 0 <= offset < BLOCKS_PER_PAGE:
                break
            addresses.append(compose_address(page, offset))
            if len(addresses) >= cfg.max_degree:
                break
            signature = advance_signature(signature, best_delta)
        return addresses

    def process_batch(self, addresses, pcs, instr_ids) -> Rows:
        """Columnar form of :meth:`process` over a trace chunk.

        The compiled SPP loop (:mod:`repro.snn.ckernel`) runs
        :meth:`process`'s step access by access on the same tables, with
        the same confidence arithmetic, so results are bit-identical
        and either path can take over from the other mid-trace.  Its
        padded output rows become :class:`Rows` by one mask.
        :meth:`process` runs instead when there is no compiled kernel
        (no C compiler, or ``REPRO_NO_CKERNEL=1``).
        """
        kernel = load_kernel()
        if kernel is None:
            return Prefetcher.process_batch(self, addresses, pcs, instr_ids)
        cfg = self.config
        addresses = np.ascontiguousarray(addresses, dtype=np.int64)
        # Every walk step that does not end the walk emits one address.
        steps = min(cfg.lookahead_depth, cfg.max_degree)
        n = len(addresses)
        counts = np.zeros(n, dtype=np.int64)
        targets = np.empty((n, steps), dtype=np.int64)
        # The loop's scratch: the Signature Table's page -> row hash
        # index and both tables' LRU links.
        st_size, pt_size = len(self._st_page), len(self._pt_stamp)
        index_size = index_slots(st_size)
        index, st_prev, st_next, pt_prev, pt_next = scratch(
            index_size, st_size, st_size, pt_size, pt_size)
        args = SPPArgs(
            **{name: pointer(getattr(self, "_" + name))
               for name in SPP_ARRAYS},
            st_index=pointer(index), st_prev=pointer(st_prev),
            st_next=pointer(st_next), pt_prev=pointer(pt_prev),
            pt_next=pointer(pt_next), st_index_size=index_size,
            st_size=st_size, pt_size=pt_size,
            # Counts never reach 2**63 - 1, so larger limits act alike.
            max_counter=min(cfg.max_counter, np.iinfo(np.int64).max),
            steps=steps, threshold=cfg.prefetch_threshold,
            st_rows=self._st_rows, st_clock=self._st_clock,
            pt_rows=self._pt_rows, pt_clock=self._pt_clock)
        kernel.spp_chunk(args, addresses, counts, targets)
        self._st_rows, self._st_clock = args.st_rows, args.st_clock
        self._pt_rows, self._pt_clock = args.pt_rows, args.pt_clock
        return Rows.from_padded(counts, targets)
