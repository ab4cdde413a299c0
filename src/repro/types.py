"""Shared value types for traces, prefetches, and address arithmetic.

The paper models a 4 KB page with 64-byte cache blocks, so each page
holds 64 blocks and valid within-page deltas span -63 ... +63 (``D = 127``
input columns).  All addresses in this package are *byte* addresses held
in Python ints; helpers here convert between byte addresses, block
addresses, pages, and page offsets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

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
            :class:`TraceArrays`, not copied): row ``i``'s records name
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
        arrays = trace.arrays()
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
        pos = arrays.positions_of(triggers)
        placed = pos >= 0
        pos = pos[placed]
        order = np.argsort(pos, kind="stable")
        offsets = np.zeros(len(arrays) + 1, dtype=np.int64)
        np.cumsum(np.bincount(pos, minlength=len(arrays)),
                  out=offsets[1:])
        return cls(offsets, addresses[placed][order], arrays.instr_ids)

    @classmethod
    def for_trace(cls, trace: "Trace",
                  prefetches: Iterable[PrefetchRequest]) -> "PrefetchFile":
        """``prefetches`` as a file laid out over ``trace``'s accesses.

        A file generated on this trace passes through untouched; a
        request iterable, or a file of another trace, goes through
        :meth:`from_requests` (its records are keyed by trigger id).
        """
        if isinstance(prefetches, cls):
            ids = trace.arrays().instr_ids
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


class TraceArrays:
    """Struct-of-arrays view of a trace (``int64`` numpy columns).

    Prefetch-file generation and the replay kernel read instruction
    ids and block numbers tens of thousands of times per grid cell;
    pulling them out of ``MemoryAccess`` objects costs an attribute
    lookup plus a property call per field per access.  This view
    materialises the columns once — after that, iteration, slicing,
    and handing the trace to worker processes touch only flat arrays.

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
    # replayed.  Pickling keeps it, so worker processes reuse the columns.
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
