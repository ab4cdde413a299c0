"""Shared value types for traces, prefetches, and address arithmetic.

The paper models a 4 KB page with 64-byte cache blocks, so each page
holds 64 blocks and valid within-page deltas span -63 ... +63 (``D = 127``
input columns).  All addresses in this package are *byte* addresses held
in Python ints; helpers here convert between byte addresses, block
addresses, pages, and page offsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Cache block (line) size in bytes, as in the paper's ChampSim config.
BLOCK_SIZE = 64
#: Number of low address bits covered by a block.
BLOCK_BITS = 6
#: Page size in bytes (4 KB).
PAGE_SIZE = 4096
#: Number of low address bits covered by a page.
PAGE_BITS = 12
#: Number of cache blocks per page.
BLOCKS_PER_PAGE = PAGE_SIZE // BLOCK_SIZE
#: Largest magnitude of a within-page block delta (-63 .. +63).
MAX_DELTA = BLOCKS_PER_PAGE - 1


def block_of(address: int) -> int:
    """Return the block (line) number of a byte address."""
    return address >> BLOCK_BITS


def block_address(address: int) -> int:
    """Return the byte address of the start of the block containing ``address``."""
    return (address >> BLOCK_BITS) << BLOCK_BITS


def page_of(address: int) -> int:
    """Return the page number of a byte address."""
    return address >> PAGE_BITS


def page_offset(address: int) -> int:
    """Return the block offset of ``address`` within its page (0..63)."""
    return (address >> BLOCK_BITS) & (BLOCKS_PER_PAGE - 1)


def compose_address(page: int, offset: int) -> int:
    """Build a block-aligned byte address from a page number and block offset.

    Raises:
        ValueError: if ``offset`` falls outside the page.
    """
    if not 0 <= offset < BLOCKS_PER_PAGE:
        raise ValueError(f"page offset {offset} outside [0, {BLOCKS_PER_PAGE})")
    return (page << PAGE_BITS) | (offset << BLOCK_BITS)


@dataclass(frozen=True)
class MemoryAccess:
    """A single demand load in a memory trace.

    Attributes:
        instr_id: Retired-instruction id of the load.  Gaps between
            consecutive ids model non-memory instructions, exactly as the
            ML-DPC trace format does.
        pc: Program counter of the load instruction.
        address: Byte address being loaded.
    """

    instr_id: int
    pc: int
    address: int

    @property
    def block(self) -> int:
        """Block number of the accessed address."""
        return block_of(self.address)

    @property
    def page(self) -> int:
        """Page number of the accessed address."""
        return page_of(self.address)

    @property
    def offset(self) -> int:
        """Block offset within the page (0..63)."""
        return page_offset(self.address)


@dataclass(frozen=True)
class PrefetchRequest:
    """A prefetch emitted by a prefetcher.

    Mirrors the ML-DPC "prefetch file" format: each line names the
    instruction id of the triggering load and the byte address to
    prefetch into the LLC.
    """

    trigger_instr_id: int
    address: int

    @property
    def block(self) -> int:
        """Block number of the prefetched address."""
        return block_of(self.address)


class TraceArrays:
    """Struct-of-arrays view of a trace (``int64`` numpy columns).

    Prefetch-file generation and the replay kernel read instruction
    ids and block numbers tens of thousands of times per grid cell;
    pulling them out of ``MemoryAccess`` objects costs an attribute
    lookup plus a property call per field per access.  This view
    materialises the columns once — after that, iteration, slicing,
    and pickling to pool workers touch only flat arrays.

    Attributes:
        instr_ids / pcs / addresses / blocks: One ``int64`` array per
            column, all the same length, in program order.

    Beyond the raw columns, the view caches the monotonicity flag the
    batch engine's planner checks, so a lineup run (baseline + N
    prefetchers, repeated per seed) derives it once per trace rather
    than once per replay.
    """

    __slots__ = ("instr_ids", "pcs", "addresses", "blocks",
                 "_instr_id_list", "_monotone")

    def __init__(self, accesses: Sequence[MemoryAccess]):
        n = len(accesses)
        self.instr_ids = np.fromiter(
            (a.instr_id for a in accesses), dtype=np.int64, count=n)
        self.pcs = np.fromiter(
            (a.pc for a in accesses), dtype=np.int64, count=n)
        self.addresses = np.fromiter(
            (a.address for a in accesses), dtype=np.int64, count=n)
        self.blocks = self.addresses >> BLOCK_BITS
        self._instr_id_list: Optional[List[int]] = None
        self._monotone: Optional[bool] = None

    @classmethod
    def from_columns(cls, instr_ids: np.ndarray, pcs: np.ndarray,
                     addresses: np.ndarray) -> "TraceArrays":
        """Build a view from ready-made columns without re-extraction."""
        view = cls.__new__(cls)
        view.instr_ids = np.ascontiguousarray(instr_ids, dtype=np.int64)
        view.pcs = np.ascontiguousarray(pcs, dtype=np.int64)
        view.addresses = np.ascontiguousarray(addresses, dtype=np.int64)
        view.blocks = view.addresses >> BLOCK_BITS
        view._instr_id_list = None
        view._monotone = None
        return view

    def __len__(self) -> int:
        return len(self.instr_ids)

    def instr_id_list(self) -> List[int]:
        """Instruction ids as a cached plain-int list (loop-friendly)."""
        if self._instr_id_list is None:
            self._instr_id_list = self.instr_ids.tolist()
        return self._instr_id_list

    # -- derived replay flag (computed once, reused lineup-wide) ---------

    def monotone(self) -> bool:
        """Whether instruction ids are strictly increasing.

        Gates the compiled batch kernel and its searchsorted trigger
        alignment; non-monotone traces replay on the reference loop.
        """
        if self._monotone is None:
            ids = self.instr_ids
            self._monotone = bool(len(ids) == 0
                                  or np.all(np.diff(ids) > 0))
        return self._monotone


@dataclass
class Trace:
    """An ordered sequence of demand loads.

    Attributes:
        name: Human-readable trace name (e.g. ``"605-mcf-s1"``).
        accesses: The loads, in program order.
        total_instructions: Total retired instructions represented by the
            trace (used by the timing model for IPC); defaults to the last
            instruction id + 1.
    """

    name: str
    accesses: List[MemoryAccess] = field(default_factory=list)
    total_instructions: Optional[int] = None
    # Lazily built struct-of-arrays view; excluded from equality so two
    # traces compare by content regardless of whether either was
    # replayed.  Pickling keeps it, so pool workers reuse the columns.
    _arrays: Optional[TraceArrays] = field(
        default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.accesses)

    def __iter__(self) -> Iterator[MemoryAccess]:
        return iter(self.accesses)

    def __getitem__(self, index):
        return self.accesses[index]

    def arrays(self) -> TraceArrays:
        """The cached struct-of-arrays view of this trace.

        Build-once: call only after the access list is final (traces
        are append-once everywhere in this package).
        """
        if self._arrays is None or len(self._arrays) != len(self.accesses):
            self._arrays = TraceArrays(self.accesses)
        return self._arrays

    @property
    def instruction_count(self) -> int:
        """Total instructions covered by the trace."""
        if self.total_instructions is not None:
            return self.total_instructions
        if not self.accesses:
            return 0
        return self.accesses[-1].instr_id + 1

    def head(self, n: int, name: Optional[str] = None) -> "Trace":
        """Return a new trace containing only the first ``n`` accesses."""
        sub = self.accesses[:n]
        total = sub[-1].instr_id + 1 if sub else 0
        return Trace(name=name or f"{self.name}[:{n}]", accesses=list(sub),
                     total_instructions=total)

    def deltas_within_page(self) -> List[int]:
        """All consecutive same-page block deltas, per (pc, page) stream.

        This is the statistic the paper's Tables 7 and 8 count: for each
        new access, the delta to the previous access in the same
        (pc, page) stream, when one exists and the delta is within the
        representable range.
        """
        last_offset: dict = {}
        deltas: List[int] = []
        for acc in self.accesses:
            key = (acc.pc, acc.page)
            prev = last_offset.get(key)
            if prev is not None:
                delta = acc.offset - prev
                if -MAX_DELTA <= delta <= MAX_DELTA and delta != 0:
                    deltas.append(delta)
            last_offset[key] = acc.offset
        return deltas


def validate_trace(trace: Trace) -> None:
    """Check basic trace invariants (monotone instr ids, non-empty).

    Raises:
        repro.errors.TraceError: on violation.
    """
    from .errors import TraceError

    if not trace.accesses:
        raise TraceError(f"trace {trace.name!r} is empty")
    prev = -1
    for i, acc in enumerate(trace.accesses):
        if acc.instr_id <= prev:
            raise TraceError(
                f"trace {trace.name!r}: instr_id not strictly increasing "
                f"at index {i} ({acc.instr_id} after {prev})")
        prev = acc.instr_id


def deltas_of(offsets: Sequence[int]) -> Tuple[int, ...]:
    """Consecutive differences of a page-offset sequence."""
    return tuple(b - a for a, b in zip(offsets, offsets[1:]))
