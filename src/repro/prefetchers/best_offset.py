"""Best-Offset prefetcher (Michaud, HPCA 2016) — rule-based baseline.

BO learns a single best prefetch *offset* by scoring candidate offsets
against a Recent Requests table: when a demand access to line X arrives
and line ``X - o`` was recently requested, offset ``o`` scores a point,
because a prefetch at offset ``o`` triggered by that earlier access
would have been timely.  Offsets are evaluated round-robin; a learning
phase ends when an offset reaches ``score_max`` or ``max_rounds``
rounds elapse, and the best-scoring offset becomes the active one.

The ML-DPC competition version the paper uses has prefetch throttling
disabled, so this implementation always prefetches with the current
best offset (no accuracy gate), matching that provider's setting.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..errors import ConfigError
from ..types import MemoryAccess
from .base import Prefetcher, Rows


def _default_offsets() -> Tuple[int, ...]:
    """Michaud's offset list: numbers whose prime factors are ≤ 5."""
    offsets = [n for n in range(1, 65) if _smooth(n)]
    return tuple(offsets + [-n for n in offsets])


def _smooth(n: int) -> bool:
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


@dataclass(frozen=True)
class BestOffsetConfig:
    """BO knobs (defaults follow the DPC2 submission).

    Attributes:
        offsets: Candidate offset list.
        score_max: Score that immediately wins a learning phase.
        max_rounds: Learning-phase length bound, in full list passes.
        recent_requests_size: Entries in the Recent Requests table.
        degree: Lines prefetched per access.  Michaud's BO issues a
            single prefetch at X + D by design (DPC2 submission), so
            the default is 1 even though the evaluation budget is 2.
    """

    offsets: Tuple[int, ...] = field(default_factory=_default_offsets)
    score_max: int = 31
    max_rounds: int = 100
    recent_requests_size: int = 256
    degree: int = 1

    def __post_init__(self) -> None:
        if not self.offsets:
            raise ConfigError("offset list must be non-empty")
        if self.degree < 1:
            raise ConfigError("degree must be >= 1")


class BestOffsetPrefetcher(Prefetcher):
    """Offset prefetcher with round-robin offset scoring."""

    name = "bo"

    def __init__(self, config: Optional[BestOffsetConfig] = None):
        self.config = config or BestOffsetConfig()
        self.best_offset = 1
        self._scores = {o: 0 for o in self.config.offsets}
        self._candidate_index = 0
        self._round = 0
        # Recent Requests as an LRU set of block numbers.
        self._recent: "OrderedDict[int, None]" = OrderedDict()

    # -- learning ------------------------------------------------------------

    def _remember(self, block: int) -> None:
        self._recent[block] = None
        self._recent.move_to_end(block)
        if len(self._recent) > self.config.recent_requests_size:
            self._recent.popitem(last=False)

    def _test_candidate(self, block: int) -> None:
        cfg = self.config
        offset = cfg.offsets[self._candidate_index]
        if (block - offset) in self._recent:
            self._scores[offset] += 1
            if self._scores[offset] >= cfg.score_max:
                self._finish_phase()
                return
        self._candidate_index += 1
        if self._candidate_index >= len(cfg.offsets):
            self._candidate_index = 0
            self._round += 1
            if self._round >= cfg.max_rounds:
                self._finish_phase()

    def _finish_phase(self) -> None:
        self.best_offset = max(self._scores, key=self._scores.get)
        self._scores = {o: 0 for o in self.config.offsets}
        self._candidate_index = 0
        self._round = 0

    # -- per-access ------------------------------------------------------------

    def process(self, access: MemoryAccess) -> List[int]:
        block = access.block
        self._test_candidate(block)
        self._remember(block)
        addresses = []
        for i in range(1, self.config.degree + 1):
            target = block + self.best_offset * i
            if target > 0:
                addresses.append(target << 6)
        return addresses

    def process_batch(self, addresses, pcs, instr_ids) -> Rows:
        """Chunked form: columnar block math, a hoisted-local walk, then
        columnar prefetch math.

        The learning automaton is inherently sequential (each access
        can flip ``best_offset`` for the next one), so the walk keeps
        the tables/counters in locals instead of attribute lookups and
        records only the offset each access prefetches with.  Its
        targets ``block + best * i`` for ``i`` in ``1..degree``, the
        positive ones in order, are then one broadcast and one mask.
        Mirrors :meth:`process` exactly, including the phase-finish
        ordering of :meth:`_test_candidate`.
        """
        cfg = self.config
        offsets = cfg.offsets
        last_index = len(offsets) - 1
        score_max = cfg.score_max
        max_rounds = cfg.max_rounds
        rr_size = cfg.recent_requests_size
        recent = self._recent
        recent_move = recent.move_to_end
        recent_pop = recent.popitem
        scores = self._scores
        index = self._candidate_index
        rnd = self._round
        best = self.best_offset
        blocks = np.asarray(addresses, dtype=np.int64) >> 6
        bests: List[int] = []
        append = bests.append
        for block in blocks.tolist():
            offset = offsets[index]
            finished = False
            if (block - offset) in recent:
                score = scores[offset] + 1
                scores[offset] = score
                if score >= score_max:
                    finished = True
            if not finished:
                if index == last_index:
                    index = 0
                    rnd += 1
                    if rnd >= max_rounds:
                        finished = True
                else:
                    index += 1
            if finished:
                best = max(scores, key=scores.get)
                scores = dict.fromkeys(offsets, 0)
                index = 0
                rnd = 0
            recent[block] = None
            recent_move(block)
            if len(recent) > rr_size:
                recent_pop(last=False)
            append(best)
        self._scores = scores
        self._candidate_index = index
        self._round = rnd
        self.best_offset = best
        targets = blocks[:, None] + (np.asarray(bests, dtype=np.int64)[:, None]
                                     * np.arange(1, cfg.degree + 1))
        positive = targets > 0
        return Rows(positive.sum(axis=1), targets[positive] << 6)
