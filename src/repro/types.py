"""Shared value types for traces, prefetches, and address arithmetic.

The paper models a 4 KB page with 64-byte cache blocks, so each page
holds 64 blocks and valid within-page deltas span -63 ... +63 (``D = 127``
input columns).  All addresses in this package are *byte* addresses,
held in Python ints or ``int64`` columns; helpers here convert between
byte addresses, block addresses, pages, and page offsets.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence, Tuple

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
    """One demand load of a memory trace: the readable row view.

    A :class:`Trace` holds its loads as ``int64`` columns; iterating or
    indexing one builds these records on demand.

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
    """One record of a prefetch file: the readable row view.

    Mirrors the ML-DPC "prefetch file" format: each line names the
    instruction id of the triggering load and the byte address to
    prefetch into the LLC.  The file itself is a columnar
    :class:`PrefetchFile`; iterating one yields these records.
    """

    trigger_instr_id: int
    address: int

    @property
    def block(self) -> int:
        """Block number of the prefetched address."""
        return block_of(self.address)


class PrefetchFile:
    """A prefetch file in CSR form over trace positions.

    ``addresses[offsets[i]:offsets[i + 1]]`` are the byte addresses
    access ``i`` of the trace triggers, in priority order.  Generation
    (:func:`repro.prefetchers.base.generate_prefetches`) writes this
    layout directly and the replay plan
    (:func:`repro.sim.fast_engine.planner.plan_replay`) reads it, so the
    file is never materialised as per-record objects on the hot path.

    Attributes:
        offsets: ``int64``, one per trace access plus one; starts at 0,
            non-decreasing, ends at ``len(addresses)``.
        addresses: ``int64`` byte addresses, row after row.
        instr_ids: The trace's instruction-id column (shared with its
            :class:`Trace`, not copied): row ``i``'s records name
            ``instr_ids[i]`` as their trigger.

    Record order — row by row, in priority order within a row — is the
    file order.  Iterating yields :class:`PrefetchRequest` rows, and a
    file compares equal to another file or a sequence of requests with
    the same records in the same order.
    """

    __slots__ = ("offsets", "addresses", "instr_ids")

    def __init__(self, offsets: np.ndarray, addresses: np.ndarray,
                 instr_ids: np.ndarray):
        self.offsets = offsets
        self.addresses = addresses
        self.instr_ids = instr_ids

    @classmethod
    def from_requests(cls, trace: "Trace",
                      rows: Iterable[PrefetchRequest]) -> "PrefetchFile":
        """Place request records onto ``trace``'s access positions.

        Each record goes to the first access whose instruction id is
        its trigger, after the records already there (a stable sort by
        position, so each trigger keeps its records in file order).  A
        list already ordered by trigger position, such as iterating a
        generated file yields, keeps its record order.  Records whose
        trigger names no trace instruction are dropped here, whatever
        their address: replay would ignore them anyway, as ChampSim
        does.

        Raises:
            PrefetchFileError: an address or trigger does not fit in
                ``int64``.
        """
        rows = rows if isinstance(rows, (list, tuple)) else list(rows)
        try:
            triggers = np.fromiter((r.trigger_instr_id for r in rows),
                                   dtype=np.int64, count=len(rows))
            addresses = np.fromiter((r.address for r in rows),
                                    dtype=np.int64, count=len(rows))
        except OverflowError as exc:
            from .errors import PrefetchFileError

            raise PrefetchFileError(
                f"prefetch record outside int64 for trace "
                f"{trace.name!r}: {exc}") from exc
        pos = trace.positions_of(triggers)
        placed = pos >= 0
        pos = pos[placed]
        order = np.argsort(pos, kind="stable")
        offsets = np.zeros(len(trace) + 1, dtype=np.int64)
        np.cumsum(np.bincount(pos, minlength=len(trace)),
                  out=offsets[1:])
        return cls(offsets, addresses[placed][order], trace.instr_ids)

    @classmethod
    def for_trace(cls, trace: "Trace",
                  prefetches: Iterable[PrefetchRequest]) -> "PrefetchFile":
        """``prefetches`` as a file laid out over ``trace``'s accesses.

        A file generated on this trace passes through untouched; a
        request iterable, or a file of another trace, goes through
        :meth:`from_requests` (its records are keyed by trigger id).
        """
        if isinstance(prefetches, cls):
            ids = trace.instr_ids
            if prefetches.instr_ids is ids or np.array_equal(
                    prefetches.instr_ids, ids):
                return prefetches
        return cls.from_requests(trace, prefetches)

    def triggers(self) -> np.ndarray:
        """The trigger instruction id of every record, in file order."""
        return np.repeat(self.instr_ids, np.diff(self.offsets))

    def __len__(self) -> int:
        return len(self.addresses)

    def __iter__(self) -> Iterator[PrefetchRequest]:
        return map(PrefetchRequest, self.triggers().tolist(),
                   self.addresses.tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, PrefetchFile):
            return (np.array_equal(self.addresses, other.addresses)
                    and np.array_equal(self.triggers(), other.triggers()))
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None  # mutable columns; equality is by content

    def __repr__(self) -> str:
        return (f"PrefetchFile({len(self)} records over "
                f"{len(self.offsets) - 1} accesses)")


class Trace:
    """An ordered sequence of demand loads, held as ``int64`` columns.

    The columns are the trace; they are built once, at construction.
    Synthesis, the trace file reader and the transforms build them
    directly; prefetch-file generation, the replay plan and kernel, and
    the trace statistics read them.  No default path builds a per-load
    object, and handing a trace to a worker process pickles flat
    arrays.  Iterating or indexing yields :class:`MemoryAccess` rows
    built on demand, as iterating a :class:`PrefetchFile` yields
    :class:`PrefetchRequest` records, and :meth:`from_accesses` builds
    a trace from such rows.  Two traces compare equal when their names,
    ``total_instructions`` and column values are equal.

    Attributes:
        name: Human-readable trace name (e.g. ``"605-mcf-s1"``).
        total_instructions: Total retired instructions represented by the
            trace (used by the timing model for IPC); ``None`` means the
            last instruction id + 1.
        instr_ids / pcs / addresses: The loads' fields, one column each,
            all the same length, in program order.
        blocks: ``addresses >> BLOCK_BITS``, derived once.
    """

    __slots__ = ("name", "total_instructions", "instr_ids", "pcs",
                 "addresses", "blocks", "_monotone")

    def __init__(self, name: str, instr_ids=(), pcs=(), addresses=(),
                 total_instructions: Optional[int] = None):
        self.name = name
        self.total_instructions = total_instructions
        self.instr_ids = np.ascontiguousarray(instr_ids, dtype=np.int64)
        self.pcs = np.ascontiguousarray(pcs, dtype=np.int64)
        self.addresses = np.ascontiguousarray(addresses, dtype=np.int64)
        if not len(self.instr_ids) == len(self.pcs) == len(self.addresses):
            raise ValueError("trace columns differ in length")
        self.blocks = self.addresses >> BLOCK_BITS
        self._monotone: Optional[bool] = None

    @classmethod
    def from_accesses(cls, name: str, rows: Iterable[MemoryAccess],
                      total_instructions: Optional[int] = None) -> "Trace":
        """A trace of ``rows``, given in program order."""
        table = np.array([(a.instr_id, a.pc, a.address) for a in rows],
                         dtype=np.int64).reshape(-1, 3)
        return cls(name, table[:, 0], table[:, 1], table[:, 2],
                   total_instructions)

    def __len__(self) -> int:
        return len(self.instr_ids)

    def __iter__(self) -> Iterator[MemoryAccess]:
        return map(MemoryAccess, self.instr_ids.tolist(),
                   self.pcs.tolist(), self.addresses.tolist())

    def __getitem__(self, index: int) -> MemoryAccess:
        index = operator.index(index)
        return MemoryAccess(int(self.instr_ids[index]),
                            int(self.pcs[index]),
                            int(self.addresses[index]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.name == other.name
                and self.total_instructions == other.total_instructions
                and np.array_equal(self.instr_ids, other.instr_ids)
                and np.array_equal(self.pcs, other.pcs)
                and np.array_equal(self.addresses, other.addresses))

    __hash__ = None  # mutable name; equality is by content

    def __repr__(self) -> str:
        return (f"Trace({self.name!r}, {len(self)} loads, "
                f"total_instructions={self.total_instructions})")

    def monotone(self) -> bool:
        """Whether instruction ids are strictly increasing.

        Gates the compiled replay kernel and the searchsorted trigger
        alignment; non-monotone traces replay on the reference loop.
        Computed once, so a lineup run (baseline + N prefetchers,
        repeated per seed) derives it once per trace rather than once
        per replay.
        """
        if self._monotone is None:
            ids = self.instr_ids
            self._monotone = bool(len(ids) == 0
                                  or np.all(np.diff(ids) > 0))
        return self._monotone

    def positions_of(self, ids: np.ndarray) -> np.ndarray:
        """Position of the first access with each id, or -1 if none."""
        n = len(self.instr_ids)
        if n == 0:
            return np.full(len(ids), -1, dtype=np.int64)
        if self.monotone():
            order, sorted_ids = None, self.instr_ids
        else:
            # A stable sort puts each id's earliest access first.
            order = np.argsort(self.instr_ids, kind="stable")
            sorted_ids = self.instr_ids[order]
        k = np.minimum(np.searchsorted(sorted_ids, ids), n - 1)
        pos = k if order is None else order[k]
        return np.where(sorted_ids[k] == ids, pos, -1)

    @property
    def instruction_count(self) -> int:
        """Total instructions covered by the trace."""
        if self.total_instructions is not None:
            return self.total_instructions
        ids = self.instr_ids
        return int(ids[-1]) + 1 if len(ids) else 0

    def head(self, n: int, name: Optional[str] = None) -> "Trace":
        """Return a new trace containing only the first ``n`` accesses."""
        ids = self.instr_ids[:n]
        total = int(ids[-1]) + 1 if len(ids) else 0
        return Trace(name or f"{self.name}[:{n}]", ids, self.pcs[:n],
                     self.addresses[:n], total)

    def stream_deltas(self) -> np.ndarray:
        """Each access's block delta within its (pc, page) stream.

        Entry ``i`` is access ``i``'s page offset minus that of the
        previous access with the same pc and page, or 0 when there is
        none.  Both offsets lie in one page, so every delta is within
        the representable range; a nonzero entry is one delta of the
        paper's Tables 7 and 8.
        """
        pages = self.addresses >> PAGE_BITS
        offsets = self.blocks & (BLOCKS_PER_PAGE - 1)
        # A stable sort by (pc, page) keeps each stream in program order.
        order = np.lexsort((pages, self.pcs))
        pcs, pages, offsets = self.pcs[order], pages[order], offsets[order]
        same = (pcs[1:] == pcs[:-1]) & (pages[1:] == pages[:-1])
        deltas = np.zeros(len(order), dtype=np.int64)
        deltas[order[1:]] = np.where(same, offsets[1:] - offsets[:-1], 0)
        return deltas

    def deltas_within_page(self) -> np.ndarray:
        """All consecutive same-page block deltas, per (pc, page) stream.

        This is the statistic the paper's Tables 7 and 8 count: for each
        new access, the nonzero delta to the previous access in the same
        (pc, page) stream, when one exists; in program order.
        """
        deltas = self.stream_deltas()
        return deltas[deltas != 0]


def validate_trace(trace: Trace) -> None:
    """Check basic trace invariants (monotone instr ids, non-empty).

    Raises:
        repro.errors.TraceError: on violation.
    """
    from .errors import TraceError

    if not len(trace):
        raise TraceError(f"trace {trace.name!r} is empty")
    if not trace.monotone():
        ids = trace.instr_ids
        i = int(np.argmax(ids[1:] <= ids[:-1])) + 1
        raise TraceError(
            f"trace {trace.name!r}: instr_id not strictly increasing "
            f"at index {i} ({ids[i]} after {ids[i - 1]})")


def deltas_of(offsets: Sequence[int]) -> Tuple[int, ...]:
    """Consecutive differences of a page-offset sequence."""
    return tuple(b - a for a, b in zip(offsets, offsets[1:]))
