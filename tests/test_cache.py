"""Unit tests for the set-associative cache."""

import pytest

from repro.errors import ConfigError
from repro.sim.cache import CacheConfig, SetAssociativeCache


def small_cache(sets=4, ways=2):
    return SetAssociativeCache(CacheConfig(name="T", sets=sets, ways=ways,
                                           latency=1))


def test_config_validation():
    with pytest.raises(ConfigError):
        CacheConfig(name="T", sets=3, ways=2, latency=1)
    with pytest.raises(ConfigError):
        CacheConfig(name="T", sets=4, ways=0, latency=1)
    with pytest.raises(ConfigError):
        CacheConfig(name="T", sets=4, ways=1, latency=-1)


def test_capacity_blocks():
    assert CacheConfig(name="T", sets=8, ways=4, latency=1).capacity_blocks == 32


def test_miss_then_hit():
    cache = small_cache()
    assert not cache.lookup(100)
    cache.insert(100)
    assert cache.lookup(100)
    assert cache.hits == 1
    assert cache.misses == 1


def test_lru_eviction_order():
    cache = small_cache(sets=1, ways=2)
    cache.insert(0)
    cache.insert(1)
    # Touch 0 so 1 becomes LRU.
    assert cache.lookup(0)
    victim = cache.insert(2)
    assert victim == 1
    assert cache.lookup(0)
    assert not cache.lookup(1)


def test_insert_refreshes_lru():
    cache = small_cache(sets=1, ways=2)
    cache.insert(0)
    cache.insert(1)
    cache.insert(0)  # refresh 0
    victim = cache.insert(2)
    assert victim == 1


def test_set_indexing_no_cross_set_conflicts():
    cache = small_cache(sets=4, ways=1)
    for block in range(4):
        cache.insert(block)
    for block in range(4):
        assert cache.contains(block)


def test_victim_block_number_reconstruction():
    cache = small_cache(sets=4, ways=1)
    cache.insert(5)          # set 1
    victim = cache.insert(9)  # set 1 as well
    assert victim == 5


def test_prefetch_useful_accounting():
    cache = small_cache()
    cache.insert(7, prefetched=True)
    assert cache.prefetch_fills == 1
    assert cache.lookup(7)
    assert cache.useful_prefetches == 1
    # Second hit on the same line is a plain hit, not another useful.
    assert cache.lookup(7)
    assert cache.useful_prefetches == 1


def test_unused_prefetch_eviction_accounting():
    cache = small_cache(sets=1, ways=1)
    cache.insert(1, prefetched=True)
    cache.insert(2)
    assert cache.evicted_unused_prefetches == 1


def test_demand_reinsert_clears_prefetch_flag():
    cache = small_cache()
    cache.insert(3, prefetched=True)
    cache.insert(3, prefetched=False)
    cache.lookup(3)
    assert cache.useful_prefetches == 0


def test_contains_does_not_mutate():
    cache = small_cache(sets=1, ways=2)
    cache.insert(0)
    cache.insert(1)
    cache.contains(0)  # must NOT refresh LRU
    victim = cache.insert(2)
    assert victim == 0
    assert cache.hits == 0 and cache.misses == 0


def test_occupancy():
    cache = small_cache(sets=4, ways=2)
    for block in range(6):
        cache.insert(block)
    assert cache.occupancy == 6
