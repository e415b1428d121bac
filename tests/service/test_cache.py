"""Tests for the content-addressed result cache."""

from __future__ import annotations

import json

import pytest

from repro.service.cache import ResultCache

FP_A = "a" * 64
FP_B = "b" * 64
FP_C = "c" * 64


def outcome(tag: str) -> dict:
    return {"fingerprint": tag, "policy": "cnash", "backend": "cnash", "success_rate": 1.0}


class TestMemoryTier:
    def test_miss_then_hit(self, counts):
        cache = ResultCache(capacity=4)
        assert cache.get(FP_A) is None
        cache.put(FP_A, outcome(FP_A))
        assert cache.get(FP_A) == outcome(FP_A)
        assert counts("repro_cache_hits_total") == 1
        assert counts("repro_cache_misses_total") == 1
        assert counts("repro_cache_stores_total") == 1

    def test_lru_eviction_order(self, counts):
        cache = ResultCache(capacity=2)
        cache.put(FP_A, outcome(FP_A))
        cache.put(FP_B, outcome(FP_B))
        cache.get(FP_A)  # refresh A so B is now least recently used
        cache.put(FP_C, outcome(FP_C))
        assert counts("repro_cache_evictions_total") == 1
        assert cache.get(FP_B) is None  # evicted
        assert cache.get(FP_A) is not None
        assert cache.get(FP_C) is not None

    def test_zero_capacity_disables_memory(self):
        cache = ResultCache(capacity=0)
        cache.put(FP_A, outcome(FP_A))
        assert len(cache) == 0
        assert cache.get(FP_A) is None

    def test_put_same_key_updates_without_eviction(self, counts):
        cache = ResultCache(capacity=1)
        cache.put(FP_A, outcome(FP_A))
        cache.put(FP_A, {"updated": True})
        assert counts("repro_cache_evictions_total") == 0
        assert cache.get(FP_A) == {"updated": True}

    def test_invalid_fingerprint_rejected(self):
        cache = ResultCache()
        with pytest.raises(ValueError, match="fingerprint"):
            cache.get("../../etc/passwd")
        with pytest.raises(ValueError, match="fingerprint"):
            cache.put("", outcome(FP_A))
        with pytest.raises(ValueError, match="fingerprint"):
            "../../etc/passwd" in cache

    def test_contains_checks_both_tiers_without_stats(self, tmp_path, counts):
        cache = ResultCache(capacity=1, directory=tmp_path)
        cache.put(FP_A, outcome(FP_A))
        cache.put(FP_B, outcome(FP_B))  # evicts A from memory, A stays on disk
        assert FP_A in cache
        assert FP_B in cache
        assert FP_C not in cache
        assert counts("repro_cache_hits_total") + counts("repro_cache_misses_total") == 0

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError, match="capacity"):
            ResultCache(capacity=-1)


class TestDiskTier:
    def test_disk_round_trip_and_promotion(self, tmp_path, counts):
        writer = ResultCache(capacity=4, directory=tmp_path)
        writer.put(FP_A, outcome(FP_A))
        assert (tmp_path / f"{FP_A}.json").is_file()

        # A fresh cache (cold memory) finds the entry on disk.
        reader = ResultCache(capacity=4, directory=tmp_path)
        assert reader.get(FP_A) == outcome(FP_A)
        assert counts("repro_cache_disk_hits_total") == 1
        # Promoted: second read is a pure memory hit.
        assert reader.get(FP_A) == outcome(FP_A)
        assert counts("repro_cache_disk_hits_total") == 1
        assert counts("repro_cache_hits_total") == 2

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path, counts):
        (tmp_path / f"{FP_A}.json").write_text("{not json", encoding="utf-8")
        cache = ResultCache(capacity=4, directory=tmp_path)
        assert cache.get(FP_A) is None
        assert counts("repro_cache_misses_total") == 1

    def test_clear_keeps_disk(self, tmp_path):
        cache = ResultCache(capacity=4, directory=tmp_path)
        cache.put(FP_A, outcome(FP_A))
        cache.clear()
        assert len(cache) == 0
        assert cache.get(FP_A) == outcome(FP_A)  # re-read from disk

    def test_disk_entries_are_valid_json(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        cache.put(FP_B, outcome(FP_B))
        on_disk = json.loads((tmp_path / f"{FP_B}.json").read_text(encoding="utf-8"))
        assert on_disk == outcome(FP_B)


class TestStats:
    def test_hit_rate(self, counts):
        cache = ResultCache(capacity=2)
        cache.put(FP_A, outcome(FP_A))
        cache.get(FP_A)
        cache.get(FP_B)
        hits, misses = counts("repro_cache_hits_total"), counts("repro_cache_misses_total")
        assert hits / (hits + misses) == pytest.approx(0.5)

    def test_counts_aggregate_across_instances(self, counts):
        ResultCache(capacity=2).get(FP_A)
        ResultCache(capacity=2).get(FP_B)
        assert counts("repro_cache_misses_total") == 2
