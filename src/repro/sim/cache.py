"""Set-associative cache with pluggable replacement and prefetch tracking.

Lines remember whether they were brought in by a prefetch and not yet
referenced by a demand access; the first demand hit on such a line is
counted as a *useful* prefetch, matching ChampSim's accounting.

Replacement is per-set and pluggable (``lru`` default, ``srrip``
optional — see :mod:`repro.sim.replacement`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import ConfigError
from .replacement import ReplacementPolicy, make_policy


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and latency of one cache level.

    Attributes:
        name: Level name for reporting ("L1D", "L2", "LLC").
        sets: Number of sets (must be a power of two).
        ways: Associativity.
        latency: Access latency in core cycles.
        replacement: Per-set policy, ``"lru"`` or ``"srrip"``.
    """

    name: str
    sets: int
    ways: int
    latency: int
    replacement: str = "lru"

    def __post_init__(self) -> None:
        if self.sets <= 0 or (self.sets & (self.sets - 1)) != 0:
            raise ConfigError(f"{self.name}: sets must be a positive power of two")
        if self.ways <= 0:
            raise ConfigError(f"{self.name}: ways must be positive")
        if self.latency < 0:
            raise ConfigError(f"{self.name}: latency must be non-negative")
        if self.replacement not in ("lru", "srrip"):
            raise ConfigError(
                f"{self.name}: unknown replacement {self.replacement!r}")

    @property
    def capacity_blocks(self) -> int:
        """Total number of blocks the cache holds."""
        return self.sets * self.ways


class _Line:
    """Payload state of one resident block."""

    __slots__ = ("prefetched",)

    def __init__(self, prefetched: bool):
        self.prefetched = prefetched


class _CacheSet:
    """One set: tag→line storage plus its replacement policy."""

    __slots__ = ("lines", "policy")

    def __init__(self, policy: ReplacementPolicy):
        self.lines: Dict[int, _Line] = {}
        self.policy = policy


class SetAssociativeCache:
    """A set-associative cache over *block numbers*.

    The cache is indexed by block number (byte address >> 6); tags are
    the remaining high bits.
    """

    def __init__(self, config: CacheConfig):
        self.config = config
        self._index_mask = config.sets - 1
        self._tag_shift_bits = config.sets.bit_length() - 1
        self._sets: Dict[int, _CacheSet] = {}
        # Statistics.
        self.hits = 0
        self.misses = 0
        self.prefetch_fills = 0
        self.useful_prefetches = 0
        self.evicted_unused_prefetches = 0

    def _locate(self, block: int) -> Tuple[int, int]:
        return block & self._index_mask, block >> self._tag_shift_bits

    def _set_for(self, index: int) -> _CacheSet:
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = _CacheSet(make_policy(self.config.replacement))
            self._sets[index] = cache_set
        return cache_set

    def lookup(self, block: int, update: bool = True) -> bool:
        """Demand-probe the cache for ``block``.

        Returns True on hit.  On a hit to a line installed by a prefetch
        that has not yet been demanded, the line is reclassified as a
        demand line and :attr:`useful_prefetches` is incremented.
        """
        index, tag = self._locate(block)
        cache_set = self._sets.get(index)
        if cache_set is None or tag not in cache_set.lines:
            if update:
                self.misses += 1
            return False
        if update:
            self.hits += 1
            line = cache_set.lines[tag]
            if line.prefetched:
                line.prefetched = False
                self.useful_prefetches += 1
            cache_set.policy.on_hit(tag)
        return True

    def contains(self, block: int) -> bool:
        """Non-destructive presence check (no stats, no policy update)."""
        return self.lookup(block, update=False)

    def insert(self, block: int, prefetched: bool = False) -> Optional[int]:
        """Install ``block``; returns the evicted block number, if any.

        Re-inserting a resident block refreshes its replacement state; a
        demand re-insert clears any pending prefetch flag.
        """
        index, tag = self._locate(block)
        cache_set = self._set_for(index)
        if tag in cache_set.lines:
            if not prefetched:
                cache_set.lines[tag].prefetched = False
            cache_set.policy.on_hit(tag)
            return None
        victim_block: Optional[int] = None
        if len(cache_set.lines) >= self.config.ways:
            victim_tag = cache_set.policy.choose_victim()
            victim_line = cache_set.lines.pop(victim_tag)
            cache_set.policy.on_evict(victim_tag)
            victim_block = (victim_tag << self._tag_shift_bits) | index
            if victim_line.prefetched:
                self.evicted_unused_prefetches += 1
        cache_set.lines[tag] = _Line(prefetched=prefetched)
        cache_set.policy.on_insert(tag)
        if prefetched:
            self.prefetch_fills += 1
        return victim_block

    def invalidate(self, block: int) -> bool:
        """Remove ``block`` if present; returns whether it was resident."""
        index, tag = self._locate(block)
        cache_set = self._sets.get(index)
        if cache_set is None or tag not in cache_set.lines:
            return False
        del cache_set.lines[tag]
        cache_set.policy.on_evict(tag)
        return True

    def reset_stats(self) -> None:
        """Zero all counters without touching cache contents."""
        self.hits = 0
        self.misses = 0
        self.prefetch_fills = 0
        self.useful_prefetches = 0
        self.evicted_unused_prefetches = 0

    @property
    def occupancy(self) -> int:
        """Number of blocks currently resident."""
        return sum(len(s.lines) for s in self._sets.values())

