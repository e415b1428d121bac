"""Tests for the per-process materialisation cache (repro.games.matcache)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.games.matcache import (
    DEFAULT_MATCACHE_CAPACITY,
    MaterializationCache,
    global_materialization_cache,
    materialize_cached,
)
from repro.games.spec import GameSpec


def spec_for(seed: int, size: int = 8) -> GameSpec:
    return GameSpec.generator("random", num_row_actions=size, seed=seed)


class TestMaterializationCache:
    def test_repeat_gets_are_served_from_cache(self, counts):
        cache = MaterializationCache(capacity=4)
        spec = spec_for(0)
        first = cache.get(spec)
        second = cache.get(spec)
        assert second is first  # the same MaterializedGame object, not a rebuild
        assert counts("repro_matcache_misses_total") == 1
        assert counts("repro_matcache_hits_total") == 1

    def test_cached_game_matches_direct_materialisation(self):
        cache = MaterializationCache(capacity=4)
        spec = spec_for(7)
        cached = cache.get(spec).game
        direct = spec.materialize()
        np.testing.assert_array_equal(cached.payoff_row, direct.payoff_row)
        np.testing.assert_array_equal(cached.payoff_col, direct.payoff_col)

    def test_eviction_keeps_the_cache_bounded(self, counts):
        # The RSS bound: a long-lived worker seeing many distinct specs
        # never holds more than `capacity` dense games.
        cache = MaterializationCache(capacity=4)
        for seed in range(10):
            cache.get(spec_for(seed))
        assert len(cache) == 4
        assert counts("repro_matcache_evictions_total") == 6

    def test_eviction_is_lru_ordered(self, counts):
        cache = MaterializationCache(capacity=2)
        first, second = spec_for(0), spec_for(1)
        cache.get(first)
        cache.get(second)
        cache.get(first)          # refresh first; second is now oldest
        cache.get(spec_for(2))    # evicts second
        assert cache.get(first) is not None
        misses = counts("repro_matcache_misses_total")
        cache.get(second)         # rebuilt: it was evicted
        assert counts("repro_matcache_misses_total") == misses + 1

    def test_unseeded_specs_bypass_the_cache(self):
        cache = MaterializationCache(capacity=4)
        fresh = GameSpec.generator("random", num_row_actions=4, seed=None)
        assert not fresh.deterministic
        cache.get(fresh)
        cache.get(fresh)
        assert len(cache) == 0  # fresh-draw semantics survive

    def test_zero_capacity_disables_caching(self):
        cache = MaterializationCache(capacity=0)
        spec = spec_for(3)
        assert cache.get(spec) is not cache.get(spec)
        assert len(cache) == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            MaterializationCache(capacity=-1)

    def test_clear_drops_entries_but_keeps_counters(self, counts):
        cache = MaterializationCache(capacity=4)
        cache.get(spec_for(0))
        cache.clear()
        assert len(cache) == 0
        assert counts("repro_matcache_misses_total") == 1


class TestGlobalCache:
    def test_global_cache_is_a_singleton(self):
        assert global_materialization_cache() is global_materialization_cache()
        assert global_materialization_cache().capacity == DEFAULT_MATCACHE_CAPACITY

    def test_materialize_cached_routes_through_the_global_cache(self, counts):
        spec = spec_for(424242, size=16)
        first = materialize_cached(spec)
        again = materialize_cached(spec)
        assert again is first
        assert counts("repro_matcache_misses_total") == 1
        assert counts("repro_matcache_hits_total") == 1
