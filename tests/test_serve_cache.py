"""Cache correctness: cached kGNN results must equal uncached ones."""

import random

import numpy as np
import pytest

from repro.datasets.synthetic import uniform_pois
from repro.errors import ConfigurationError
from repro.geometry.space import LocationSpace
from repro.gnn.engine import GNNQueryEngine
from repro.serve.cache import CacheStats, KnnLRUCache, knn_cache_key


@pytest.fixture(scope="module")
def space():
    return LocationSpace.unit_square()


@pytest.fixture(scope="module")
def pois(space):
    return uniform_pois(400, space, np.random.default_rng(11))


class TestKnnLRUCache:
    def test_lru_eviction_order(self):
        cache = KnnLRUCache(2)
        cache.store("a", 1)
        cache.store("b", 2)
        assert cache.lookup("a") == 1  # refreshes "a"
        cache.store("c", 3)  # evicts "b", the least recently used
        assert cache.lookup("b") is None
        assert cache.lookup("a") == 1 and cache.lookup("c") == 3
        assert cache.stats.evictions == 1

    def test_counters_and_hit_rate(self):
        cache = KnnLRUCache(4)
        assert cache.lookup("x") is None
        cache.store("x", 42)
        assert cache.lookup("x") == 42
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            KnnLRUCache(0)

    def test_stats_merge(self):
        a, b = CacheStats(hits=1, misses=2), CacheStats(hits=3, misses=4, evictions=5)
        a.merge(b)
        assert (a.hits, a.misses, a.evictions) == (4, 6, 5)


class TestEngineCaching:
    def test_cached_results_identical_under_eviction_pressure(self, pois, space):
        """Random queries with repeats, tiny capacity: hits == uncached."""
        plain = GNNQueryEngine(pois)
        cached = GNNQueryEngine(pois)
        cached.set_knn_cache(KnnLRUCache(8))  # far smaller than the query mix
        rng = random.Random(99)
        nprng = np.random.default_rng(99)
        history = []
        for _ in range(120):
            if history and rng.random() < 0.5:
                k, group = history[rng.randrange(len(history))]
            else:
                k = rng.randrange(1, 6)
                group = tuple(space.sample_points(rng.randrange(1, 4), nprng))
                history.append((k, group))
            expected = plain.query(k, group)
            got = cached.query(k, group)
            assert [p.poi_id for p in got] == [p.poi_id for p in expected]
        stats = cached.knn_cache.stats
        assert stats.hits > 0 and stats.misses > 0 and stats.evictions > 0

    def test_query_many_matches_a_query_loop(self, pois, space):
        """A cache smaller than one request, with repeats inside a request:
        answers, counters and the final LRU order and contents equal a loop
        of ``query`` calls.  ``g[0]`` returns after its entry was evicted."""
        nprng = np.random.default_rng(21)
        g = [tuple(space.sample_points(3, nprng)) for _ in range(7)]
        requests = [
            [g[0], g[1], g[2], g[3], g[4], g[1], g[0]],
            [g[4], g[5], g[0], g[5], g[6], g[2], g[6]],
        ]
        batched, looped = GNNQueryEngine(pois), GNNQueryEngine(pois)
        batched.set_knn_cache(KnnLRUCache(4))
        looped.set_knn_cache(KnnLRUCache(4))
        for request in requests:
            got = batched.query_many(5, request)
            want = [looped.query(5, group) for group in request]
            assert [[p.poi_id for p in a] for a in got] == [
                [p.poi_id for p in a] for a in want
            ]
            assert batched.knn_cache.stats == looped.knn_cache.stats
            assert list(batched.knn_cache._entries.items()) == list(
                looped.knn_cache._entries.items()
            )
        stats = batched.knn_cache.stats
        assert (stats.hits, stats.misses, stats.evictions) == (5, 9, 5)
        # Only the misses were walked.
        assert batched.index_counters.queries == looped.index_counters.queries == 9

    def test_mutation_invalidates_entries(self, pois, space):
        engine = GNNQueryEngine(pois)
        engine.set_knn_cache(KnnLRUCache(16))
        group = tuple(space.sample_points(2, np.random.default_rng(5)))
        before = engine.query(3, group)
        victim = before[0]
        assert engine.delete(victim)
        after = engine.query(3, group)
        assert victim.poi_id not in [p.poi_id for p in after]
        engine.insert(victim)
        again = engine.query(3, group)
        assert [p.poi_id for p in again] == [p.poi_id for p in before]

    def test_key_distinguishes_k_and_locations(self, space):
        group = tuple(space.sample_points(2, np.random.default_rng(1)))
        base = knn_cache_key(0, "mbm", "sum", 3, group)
        assert knn_cache_key(0, "mbm", "sum", 4, group) != base
        assert knn_cache_key(1, "mbm", "sum", 3, group) != base
        assert knn_cache_key(0, "mbm", "max", 3, group) != base
        assert knn_cache_key(0, "mbm", "sum", 3, group[:1]) != base
