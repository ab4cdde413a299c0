"""Synthetic access-stream primitives used to build workload generators.

Each *stream* is an infinite sequence of ``(pc, address)`` pairs with a
characteristic pattern class:

- :class:`SequentialStream` — next-line friendly linear scans.
- :class:`DeltaPatternStream` — a short repeating within-page delta
  pattern applied to a succession of *fresh* pages.  Delta prefetchers
  (PATHFINDER, SPP, BO, Pythia) can learn it; address-correlation
  prefetchers (SISB) cannot, because addresses never repeat.
- :class:`TemporalReplayStream` — an irregular address sequence recorded
  once and replayed verbatim.  SISB-style temporal prefetchers excel
  here; per-page delta prefetchers see noise.
- :class:`PointerChaseStream` — uniformly irregular accesses over a heap
  region; hard for everyone (the paper's mcf-like behaviour).

:class:`StreamMixer` interleaves weighted streams and stamps instruction
ids with a workload-specific mean gap, producing a
:class:`~repro.types.Trace`.

Generation is *batched*: every stream's core is a ``_batches()``
generator that emits ``(pc_column, address_column)`` numpy chunks, with
all randomness drawn as whole arrays per chunk instead of one scalar
``Generator`` call per access (scalar draws cost ~1µs each and used to
dominate generation time).  ``sample(n)`` concatenates chunks into flat
``int64`` columns for the mixer; ``__iter__`` adapts the same chunks to
the per-access protocol tests and ad-hoc callers use.  Batching changes
how the RNG stream is consumed, so traces differ in content (but not in
statistical shape) from the pre-batched scalar implementation at the
same seed.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import ConfigError
from ..types import (
    BLOCK_BITS,
    BLOCKS_PER_PAGE,
    PAGE_BITS,
    Trace,
)

PcAddr = Tuple[int, int]

#: Preferred chunk size for batched generation.
_CHUNK = 2048


class AccessStream:
    """Base class for infinite (pc, address) generators.

    Subclasses implement :meth:`_batches`, an infinite generator of
    ``(pc_column, address_column)`` numpy ``int64`` chunk pairs (each
    chunk non-empty).  Iteration and column sampling are derived.
    """

    def _batches(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        raise NotImplementedError

    def __iter__(self) -> Iterator[PcAddr]:
        for pcs, addrs in self._batches():
            yield from zip(pcs.tolist(), addrs.tolist())

    def sample(self, n: int) -> Tuple[np.ndarray, np.ndarray]:
        """The stream's first ``n`` accesses as flat int64 columns."""
        if n <= 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        pcs: List[np.ndarray] = []
        addrs: List[np.ndarray] = []
        got = 0
        for pc_col, addr_col in self._batches():
            pcs.append(pc_col)
            addrs.append(addr_col)
            got += len(addr_col)
            if got >= n:
                break
        return (np.concatenate(pcs)[:n].astype(np.int64, copy=False),
                np.concatenate(addrs)[:n].astype(np.int64, copy=False))


class SequentialStream(AccessStream):
    """Linear scan: consecutive blocks, crossing page boundaries naturally.

    Args:
        pc: Program counter to stamp on every access.
        start_page: First page of the scan region.
        stride: Block stride (default 1 = next-line).
        region_pages: Wrap around after this many pages.
    """

    def __init__(self, pc: int, start_page: int, stride: int = 1,
                 region_pages: int = 4096):
        if stride == 0:
            raise ConfigError("SequentialStream stride must be non-zero")
        self.pc = pc
        self.start_page = start_page
        self.stride = stride
        self.region_pages = region_pages

    def _batches(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        start_block = self.start_page * BLOCKS_PER_PAGE
        span = self.region_pages * BLOCKS_PER_PAGE
        # Steps before the scan wraps back to the region start.
        if self.stride > 0:
            period = max(1, -(-span // self.stride))
        else:
            period = 1
        pc_col = np.full(_CHUNK, self.pc, dtype=np.int64)
        steps = np.arange(_CHUNK, dtype=np.int64)
        k = 0
        while True:
            blocks = start_block + ((k + steps) % period) * self.stride
            yield pc_col, blocks << BLOCK_BITS
            k = (k + _CHUNK) % period


class DeltaPatternStream(AccessStream):
    """A repeating within-page delta pattern over a succession of fresh pages.

    Starting from a configurable offset in each page, offsets advance by
    the pattern's deltas (cycled).  When the next offset would leave the
    page, the stream moves to a fresh page (never revisited), so no
    address is ever repeated — only the *delta structure* recurs.

    Args:
        pc: Program counter for the stream.
        pattern: The repeating delta pattern (e.g. ``(1, 2, 3)``).
        first_page: First page of the (large) region the stream walks.
        start_offset: Offset of the first access in each page.
        noise: Probability that an individual delta is perturbed by ±1
            (models OoO reordering / control-flow noise).
        accesses_per_page: Optional cap on accesses before forcing a page
            change even if the pattern still fits.
        seed: RNG seed for the noise process.
    """

    def __init__(self, pc: int, pattern: Sequence[int], first_page: int,
                 start_offset: int = 0, noise: float = 0.0,
                 accesses_per_page: Optional[int] = None, seed: int = 0):
        if not pattern:
            raise ConfigError("DeltaPatternStream needs a non-empty pattern")
        if any(d == 0 for d in pattern):
            raise ConfigError("delta pattern must not contain zero deltas")
        self.pc = pc
        self.pattern = tuple(pattern)
        self.first_page = first_page
        self.start_offset = start_offset
        self.noise = noise
        self.accesses_per_page = accesses_per_page
        self.seed = seed

    def _page_offsets(self, rng: np.random.Generator,
                      length_hint: int) -> np.ndarray:
        """One page's offset sequence (noise drawn as whole arrays)."""
        pattern = np.asarray(self.pattern, dtype=np.int64)
        steps = length_hint
        while True:
            deltas = np.tile(pattern, -(-steps // len(pattern)))[:steps]
            if self.noise:
                perturbed = deltas + rng.integers(-1, 2, size=steps)
                perturbed[perturbed == 0] = 1
                deltas = np.where(rng.random(steps) < self.noise,
                                  perturbed, deltas)
            offsets = self.start_offset + np.concatenate(
                (np.zeros(1, dtype=np.int64), np.cumsum(deltas)))
            outside = (offsets < 0) | (offsets >= BLOCKS_PER_PAGE)
            if outside.any():
                offsets = offsets[:int(np.argmax(outside))]
            elif self.accesses_per_page is None:
                # Pattern still inside the page after `steps` deltas;
                # widen the window (only possible with mixed-sign
                # patterns that wander without escaping).
                if steps > 1 << 15:
                    raise ConfigError(
                        "delta pattern never leaves its page")
                steps *= 2
                continue
            if self.accesses_per_page:
                offsets = offsets[:self.accesses_per_page]
            return offsets

    def _batches(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        rng = np.random.default_rng(self.seed)
        if not (0 <= self.start_offset < BLOCKS_PER_PAGE):
            raise ConfigError("start_offset outside the page")
        length_hint = (self.accesses_per_page
                       or BLOCKS_PER_PAGE + len(self.pattern))
        page = self.first_page
        while True:
            offsets = self._page_offsets(rng, length_hint)
            addrs = (page << PAGE_BITS) | (offsets << BLOCK_BITS)
            yield np.full(len(addrs), self.pc, dtype=np.int64), addrs
            page += 1


class InterleavedPatternStream(AccessStream):
    """Two delta-pattern walkers from *different PCs* sharing pages.

    Models the interference the paper motivates neural prefetching with
    (§2.3): two instruction streams traverse the same pages with their
    own delta patterns, randomly interleaved.  A PC-aware prefetcher
    (PATHFINDER's Training Table is keyed by pc+page) sees two clean
    streams; a page-keyed delta predictor (SPP's signatures) sees a
    corrupted mixture.

    Args:
        pc_a / pc_b: The two program counters.
        pattern_a / pattern_b: Each walker's repeating delta pattern.
        first_page: First page of the shared (fresh-page) region.
        noise: Per-delta perturbation probability, as in
            :class:`DeltaPatternStream`.
        seed: RNG seed for interleaving and noise.
    """

    def __init__(self, pc_a: int, pc_b: int, pattern_a: Sequence[int],
                 pattern_b: Sequence[int], first_page: int,
                 noise: float = 0.0, seed: int = 0):
        if not pattern_a or not pattern_b:
            raise ConfigError("both patterns must be non-empty")
        if any(d == 0 for d in tuple(pattern_a) + tuple(pattern_b)):
            raise ConfigError("delta patterns must not contain zero deltas")
        self.pc_a = pc_a
        self.pc_b = pc_b
        self.pattern_a = tuple(pattern_a)
        self.pattern_b = tuple(pattern_b)
        self.first_page = first_page
        self.noise = noise
        self.seed = seed

    def _batches(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        rng = np.random.default_rng(self.seed)
        noise = self.noise
        page = self.first_page
        # Worst case both walkers take unit steps across the page, so
        # one page consumes at most ~2*BLOCKS_PER_PAGE interleaving
        # draws; one batched draw per page replaces them all.
        draws = 2 * BLOCKS_PER_PAGE + 4
        while True:
            which_arr = rng.integers(0, 2, size=draws).tolist()
            perturb = (rng.integers(-1, 2, size=draws).tolist()
                       if noise else None)
            u = rng.random(draws).tolist() if noise else None
            # Both walkers start at opposite ends of the same page so
            # they genuinely interleave without colliding immediately.
            walkers = [
                [self.pc_a, 0, 0, self.pattern_a],
                [self.pc_b, 1, 0, self.pattern_b],
            ]
            alive = [True, True]
            base = page << PAGE_BITS
            pcs: List[int] = []
            addrs: List[int] = []
            step = 0
            while alive[0] or alive[1]:
                which = which_arr[step]
                if not alive[which]:
                    which = 1 - which
                pc, offset, pos, pattern = walkers[which]
                pcs.append(pc)
                addrs.append(base | (offset << BLOCK_BITS))
                delta = pattern[pos % len(pattern)]
                walkers[which][2] = pos + 1
                if noise and u[step] < noise:
                    delta += perturb[step]
                    if delta == 0:
                        delta = 1
                step += 1
                offset += delta
                if 0 <= offset < BLOCKS_PER_PAGE:
                    walkers[which][1] = offset
                else:
                    alive[which] = False
            yield (np.asarray(pcs, dtype=np.int64),
                   np.asarray(addrs, dtype=np.int64))
            page += 1


class TemporalReplayStream(AccessStream):
    """An irregular address sequence replayed verbatim, forever.

    The recorded sequence jumps between random pages/offsets so per-page
    delta state is useless, but because the *exact* sequence repeats, an
    address-correlating (temporal) prefetcher learns it after one pass.

    Args:
        pc: Program counter for the stream.
        length: Number of addresses in the recorded sequence.
        region_page: Base page of the address region.
        region_pages: Number of pages addresses are drawn from.
        run_length: Consecutive-block run emitted at each random
            location (1 = fully irregular jumps; larger values model
            sweeps over dense structures that repeat temporally, and
            keep the stream's *distinct-delta* count low as the paper's
            Table 8 shows for sphinx/xalan-like workloads).
        offset_grid: Random offsets are snapped to multiples of this
            value, collapsing the page-revisit delta vocabulary (the
            structures real programs replay are aligned objects, not
            arbitrary bytes); 1 = no snapping.
        seed: RNG seed used to record the sequence.
    """

    def __init__(self, pc: int, length: int, region_page: int,
                 region_pages: int = 512, run_length: int = 1,
                 offset_grid: int = 1, seed: int = 0):
        if length < 2:
            raise ConfigError("TemporalReplayStream length must be >= 2")
        if run_length < 1:
            raise ConfigError("run_length must be >= 1")
        if offset_grid < 1 or offset_grid > BLOCKS_PER_PAGE:
            raise ConfigError("offset_grid must be in [1, blocks/page]")
        self.pc = pc
        rng = np.random.default_rng(seed)
        parts: List[np.ndarray] = []
        recorded = 0
        steps = np.arange(run_length, dtype=np.int64)
        while recorded < length:
            draws = max(8, -(-(length - recorded) // run_length))
            pages = region_page + rng.integers(0, region_pages, size=draws)
            offsets = rng.integers(0, BLOCKS_PER_PAGE, size=draws)
            offsets -= offsets % offset_grid
            # Expand each draw into its run, dropping the steps that
            # would cross the page boundary (row order = draw order).
            run_offsets = offsets[:, None] + steps[None, :]
            addresses = ((pages[:, None] << PAGE_BITS)
                         | (run_offsets << BLOCK_BITS))
            chunk = addresses[run_offsets < BLOCKS_PER_PAGE]
            parts.append(chunk)
            recorded += len(chunk)
        recording = np.concatenate(parts)[:length].astype(np.int64,
                                                          copy=False)
        self._recording = recording
        self._pc_col = np.full(length, pc, dtype=np.int64)

    def _batches(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        while True:
            yield self._pc_col, self._recording


class PointerChaseStream(AccessStream):
    """Irregular pointer-chase: random walk over a heap with no repetition.

    Every access picks a fresh pseudo-random page and offset, so neither
    delta structure nor address correlation exists.  A small
    ``locality`` fraction of accesses stay in the current page with a
    random delta, which gives delta prefetchers a thin, noisy signal —
    the paper's mcf-like behaviour.

    Args:
        pc: Program counter for the stream.
        region_page: Base page of the heap region.
        region_pages: Size of the heap region, in pages.
        locality: Probability of staying within the current page.
        local_jump_max: Upper bound (exclusive) of the random in-page
            jump taken on local accesses; larger values raise the
            distinct-delta diversity (paper Table 8's cc/mcf profile).
        seed: RNG seed.
    """

    def __init__(self, pc: int, region_page: int, region_pages: int = 1 << 16,
                 locality: float = 0.2, local_jump_max: int = 8,
                 seed: int = 0):
        if local_jump_max < 2:
            raise ConfigError("local_jump_max must be >= 2")
        self.pc = pc
        self.region_page = region_page
        self.region_pages = region_pages
        self.locality = locality
        self.local_jump_max = local_jump_max
        self.seed = seed

    def _batches(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        rng = np.random.default_rng(self.seed)
        pc_col = np.full(_CHUNK, self.pc, dtype=np.int64)
        indices = np.arange(_CHUNK)
        carry_page = self.region_page
        carry_offset = 0
        while True:
            local = rng.random(_CHUNK) < self.locality
            jumps = rng.integers(1, self.local_jump_max, size=_CHUNK)
            fresh_pages = self.region_page + rng.integers(
                0, self.region_pages, size=_CHUNK)
            fresh_offsets = rng.integers(0, BLOCKS_PER_PAGE, size=_CHUNK)
            # Each access either jumps to a fresh (page, offset) or adds
            # a jump to the previous offset within the current page.  A
            # local run's offsets are its anchor's offset plus the
            # cumulative jumps since the anchor (mod page size); the
            # anchor is the most recent non-local access, or the carry
            # state from the previous chunk.
            anchor = np.maximum.accumulate(np.where(~local, indices, -1))
            anchored = anchor >= 0
            safe_anchor = np.maximum(anchor, 0)
            local_jumps = np.where(local, jumps, 0)
            jump_sum = np.cumsum(local_jumps)
            base_offset = np.where(anchored, fresh_offsets[safe_anchor],
                                   carry_offset)
            base_sum = np.where(anchored, jump_sum[safe_anchor], 0)
            offsets = (base_offset + jump_sum - base_sum) % BLOCKS_PER_PAGE
            pages = np.where(anchored, fresh_pages[safe_anchor], carry_page)
            carry_page = int(pages[-1])
            carry_offset = int(offsets[-1])
            yield pc_col, (pages << PAGE_BITS) | (offsets << BLOCK_BITS)


class StreamMixer:
    """Interleave weighted access streams into a finite trace.

    Each emitted access is drawn from one stream chosen with probability
    proportional to its weight, and instruction ids advance by a
    geometric gap with the given mean, reproducing each benchmark's
    instructions-per-load density (paper Table 5).

    Args:
        streams: ``(stream, weight)`` pairs.
        mean_instr_gap: Mean instructions between consecutive loads.
        seed: RNG seed for stream selection and gap sampling.
    """

    def __init__(self, streams: Sequence[Tuple[AccessStream, float]],
                 mean_instr_gap: float = 10.0, seed: int = 0):
        if not streams:
            raise ConfigError("StreamMixer needs at least one stream")
        if mean_instr_gap < 1.0:
            raise ConfigError("mean_instr_gap must be >= 1")
        self.streams = list(streams)
        self.mean_instr_gap = mean_instr_gap
        self.seed = seed

    def columns(self, n_accesses: int, instr_base: int = 0
                ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Generate ``(instr_ids, pcs, addresses)`` int64 columns.

        Instruction ids start strictly above ``instr_base`` so phase
        segments can be chained without re-stamping.
        """
        rng = np.random.default_rng(self.seed)
        n_streams = len(self.streams)
        weights = np.array([w for _, w in self.streams], dtype=float)
        weights = weights / weights.sum()
        choices = rng.choice(n_streams, size=n_accesses, p=weights)
        # Geometric gaps with the requested mean (>= 1 instruction apart).
        p = min(1.0, 1.0 / self.mean_instr_gap)
        gaps = rng.geometric(p, size=n_accesses)
        instr_ids = instr_base + np.cumsum(gaps, dtype=np.int64)
        pcs = np.empty(n_accesses, dtype=np.int64)
        addresses = np.empty(n_accesses, dtype=np.int64)
        counts = np.bincount(choices, minlength=n_streams)
        for i, (stream, _) in enumerate(self.streams):
            count = int(counts[i])
            if not count:
                continue
            mask = choices == i
            pc_col, addr_col = stream.sample(count)
            pcs[mask] = pc_col
            addresses[mask] = addr_col
        return instr_ids, pcs, addresses

    def generate(self, n_accesses: int, name: str = "synthetic") -> Trace:
        """Produce a trace of ``n_accesses`` interleaved loads."""
        instr_ids, pcs, addresses = self.columns(n_accesses)
        return trace_from_columns(name, instr_ids, pcs, addresses)


def trace_from_columns(name: str, instr_ids: np.ndarray, pcs: np.ndarray,
                       addresses: np.ndarray) -> Trace:
    """Build a :class:`Trace` of flat columns; its instruction count is
    the last id + 1."""
    total = int(instr_ids[-1]) + 1 if len(instr_ids) else 0
    return Trace(name, instr_ids, pcs, addresses, total_instructions=total)
