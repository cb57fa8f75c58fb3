"""Shared result caches for the serving engine.

The LSP's dominant *plaintext* cost under serving load is the per-candidate
kGNN call (delta' R-tree searches per query).  Served traffic contains
verbatim repeats — clients re-issuing an identical query after a dropped
answer, hot "where shall we meet" queries refreshed by the same group —
and those repeats re-run the exact same delta' candidate searches.

:class:`KnnLRUCache` memoizes kGNN results under an *exact* key:

    (tree version, aggregate, k, locations)

Exactness is the correctness contract: a hit is returned only for a query
byte-identical to the one that produced the entry, so cached results are
always identical to uncached calls (property-tested under random eviction
pressure).  The tree version in the key makes every entry self-invalidate
when the database mutates — the dynamic-database story keeps working.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Sequence

from repro.errors import ConfigurationError
from repro.geometry.point import Point


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one cache's lifetime."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def merge(self, other: "CacheStats") -> None:
        """Accumulate another cache's counters into this one."""
        self.hits += other.hits
        self.misses += other.misses
        self.evictions += other.evictions


#: Distinguishes "key absent" from "None was cached" — ``get(key)``
#: returning the default must not shadow a legitimately stored None.
_MISSING = object()


class KnnLRUCache:
    """A bounded least-recently-used cache with hit/miss counters."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError("cache capacity must be positive")
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: Hashable) -> Any | None:
        """The cached value, refreshed to most-recent, or None on a miss.

        A stored None counts as a hit: treating it as a miss would both
        skew the hit rate and pin the entry at its old LRU position, so a
        None entry would poison its slot until evicted.
        """
        value = self._entries.get(key, _MISSING)
        if value is _MISSING:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return value

    def store(self, key: Hashable, value: Any) -> None:
        """Insert or replace a value, evicting the LRU entry if full.

        Replacing an existing key refreshes its recency and never evicts
        (the size does not grow).
        """
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] = value
            return
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        self._entries[key] = value

    def fill(self, key: Hashable, value: Any) -> None:
        """Replace the value under ``key`` if it is still cached.

        Neither recency nor the counters move: the batched engine stores a
        placeholder per miss in lookup order and fills in the answers once
        its walk is done.
        """
        if key in self._entries:
            self._entries[key] = value

    def discard(self, key: Hashable) -> None:
        """Drop ``key`` if present, without touching the counters."""
        self._entries.pop(key, None)

    def clear(self) -> None:
        self._entries.clear()


#: The serving engine's cache is LRU first and kNN-specific second; some
#: call sites (and the serving docs) use the generic name.
LRUCache = KnnLRUCache


def knn_cache_key(
    version: int,
    aggregate: str,
    k: int,
    locations: Sequence[Point],
) -> tuple:
    """The exact-match cache key of one kGNN call."""
    return (version, aggregate, k, tuple((p.x, p.y) for p in locations))
