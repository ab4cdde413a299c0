"""Cold-page predictor (the paper's flagged future work, §3.4).

PATHFINDER only predicts the next block *within* a page, so the first
access to a page that hasn't been touched in a while is never covered
— the paper calls predicting it "left for future work".  This module
implements that extension as a composable prefetcher: a per-PC
page-transition table learns which page (as a page delta) and which
first offset tend to follow the current page, and prefetches that
first block when a stream changes page.

Combine it with PATHFINDER in an ensemble to cover both the first
access to each page and the accesses within it::

    EnsemblePrefetcher([PathfinderPrefetcher(), ColdPagePredictor()])
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import ConfigError
from ..types import MemoryAccess, compose_address
from .base import Prefetcher


@dataclass(frozen=True)
class ColdPageConfig:
    """Cold-page predictor knobs.

    Attributes:
        table_size: Tracked (pc, page-delta) transition rows (LRU).
        max_page_delta: Largest |page delta| learned; larger jumps are
            treated as unpredictable.
        confidence_max: Saturation of each row's confidence counter.
        confidence_threshold: Minimum confidence to prefetch.
        degree: Blocks prefetched at the predicted page's start.
    """

    table_size: int = 512
    max_page_delta: int = 64
    confidence_max: int = 7
    confidence_threshold: int = 2
    degree: int = 1

    def __post_init__(self) -> None:
        if self.table_size < 1 or self.degree < 1:
            raise ConfigError("table_size and degree must be >= 1")
        if not 0 <= self.confidence_threshold <= self.confidence_max:
            raise ConfigError("confidence_threshold outside counter range")


class _Transition:
    """Learned (page delta, first offset) with confidence."""

    __slots__ = ("page_delta", "first_offset", "confidence")

    def __init__(self, page_delta: int, first_offset: int):
        self.page_delta = page_delta
        self.first_offset = first_offset
        self.confidence = 1


class ColdPagePredictor(Prefetcher):
    """Predicts each stream's next page and its first touched block."""

    name = "coldpage"

    def __init__(self, config: Optional[ColdPageConfig] = None):
        self.config = config or ColdPageConfig()
        # pc -> (current page, first offset seen in it)
        self._current: Dict[int, Tuple[int, int]] = {}
        # pc -> learned transition (LRU-bounded overall)
        self._transitions: "OrderedDict[int, _Transition]" = OrderedDict()
        self.predictions = 0

    def _learn(self, pc: int, page_delta: int, first_offset: int) -> None:
        cfg = self.config
        if abs(page_delta) > cfg.max_page_delta:
            self._transitions.pop(pc, None)
            return
        row = self._transitions.get(pc)
        if row is not None and (row.page_delta == page_delta
                                and row.first_offset == first_offset):
            row.confidence = min(cfg.confidence_max, row.confidence + 1)
            self._transitions.move_to_end(pc)
            return
        if row is not None:
            row.confidence -= 1
            if row.confidence > 0:
                self._transitions.move_to_end(pc)
                return
        if len(self._transitions) >= cfg.table_size and pc not in self._transitions:
            self._transitions.popitem(last=False)
        self._transitions[pc] = _Transition(page_delta, first_offset)

    def process(self, access: MemoryAccess) -> List[int]:
        cfg = self.config
        current = self._current.get(access.pc)
        if current is not None and current[0] == access.page:
            return []  # still inside the page: PATHFINDER's territory

        if current is not None:
            self._learn(access.pc, access.page - current[0], access.offset)
        self._current[access.pc] = (access.page, access.offset)

        row = self._transitions.get(access.pc)
        if row is None or row.confidence < cfg.confidence_threshold:
            return []
        next_page = access.page + row.page_delta
        if next_page < 0:
            return []
        self.predictions += 1
        addresses = []
        for step in range(cfg.degree):
            offset = row.first_offset + step
            if offset < 64:
                addresses.append(compose_address(next_page, offset))
        return addresses
