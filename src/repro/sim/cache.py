"""Set-associative LRU cache with prefetch tracking.

Lines remember whether they were brought in by a prefetch and not yet
referenced by a demand access; the first demand hit on such a line is
counted as a *useful* prefetch, matching ChampSim's accounting.

Every level replaces its least recently used line (ChampSim's default,
and the only policy the replay kernel models).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import ConfigError


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level.

    Attributes:
        name: Level name for reporting ("L1D", "L2", "LLC").
        sets: Number of sets (must be a power of two).
        ways: Associativity.
        latency: Access latency in core cycles.
    """

    name: str
    sets: int
    ways: int
    latency: int

    def __post_init__(self) -> None:
        if self.sets <= 0 or (self.sets & (self.sets - 1)) != 0:
            raise ConfigError(f"{self.name}: sets must be a positive power of two")
        if self.ways <= 0:
            raise ConfigError(f"{self.name}: ways must be positive")
        if self.latency < 0:
            raise ConfigError(f"{self.name}: latency must be non-negative")

    @property
    def capacity_blocks(self) -> int:
        """Total number of blocks the cache holds."""
        return self.sets * self.ways


class SetAssociativeCache:
    """A set-associative LRU cache over *block numbers*.

    The cache is indexed by block number (byte address >> 6); tags are
    the remaining high bits.  Each set is one ``OrderedDict`` mapping a
    resident tag to its "prefetched, not yet demanded" flag, least
    recently used first: a reference moves the tag to the end, and the
    victim is the first tag.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self._index_mask = config.sets - 1
        self._tag_shift_bits = config.sets.bit_length() - 1
        self._sets: Dict[int, "OrderedDict[int, bool]"] = {}
        # Statistics.
        self.hits = 0
        self.misses = 0
        self.prefetch_fills = 0
        self.useful_prefetches = 0
        self.evicted_unused_prefetches = 0

    def _locate(self, block: int) -> Tuple[int, int]:
        return block & self._index_mask, block >> self._tag_shift_bits

    def lookup(self, block: int, update: bool = True) -> bool:
        """Demand-probe the cache for ``block``.

        Returns True on hit.  On a hit to a line installed by a prefetch
        that has not yet been demanded, the line is reclassified as a
        demand line and :attr:`useful_prefetches` is incremented.
        """
        index, tag = self._locate(block)
        lines = self._sets.get(index)
        if lines is None or tag not in lines:
            if update:
                self.misses += 1
            return False
        if update:
            self.hits += 1
            if lines[tag]:
                lines[tag] = False
                self.useful_prefetches += 1
            lines.move_to_end(tag)
        return True

    def contains(self, block: int) -> bool:
        """Non-destructive presence check (no stats, no recency update)."""
        return self.lookup(block, update=False)

    def insert(self, block: int, prefetched: bool = False) -> Optional[int]:
        """Install ``block``; returns the evicted block number, if any.

        Re-inserting a resident block makes it the most recently used; a
        demand re-insert clears any pending prefetch flag.
        """
        index, tag = self._locate(block)
        lines = self._sets.get(index)
        if lines is None:
            lines = self._sets[index] = OrderedDict()
        elif tag in lines:
            if not prefetched:
                lines[tag] = False
            lines.move_to_end(tag)
            return None
        victim_block: Optional[int] = None
        if len(lines) >= self.config.ways:
            victim_tag, victim_prefetched = lines.popitem(last=False)
            victim_block = (victim_tag << self._tag_shift_bits) | index
            if victim_prefetched:
                self.evicted_unused_prefetches += 1
        lines[tag] = prefetched
        if prefetched:
            self.prefetch_fills += 1
        return victim_block

    @property
    def occupancy(self) -> int:
        """Number of blocks currently resident."""
        return sum(len(lines) for lines in self._sets.values())
