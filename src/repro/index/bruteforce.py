"""Exhaustive-scan spatial index: the correctness oracle.

Every query walks the full entry list.  Slow but trivially correct, so the
test suite uses it as the reference implementation for the R-tree, the grid
index, and the kNN / kGNN algorithms.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.base import SpatialIndex, validate_entries, validate_location


class BruteForceIndex(SpatialIndex):
    """A flat list of entries with linear-scan queries."""

    def __init__(self) -> None:
        self._entries: list[tuple[Point, Any]] = []
        self.version = 0

    def insert(self, location: Point, item: Any) -> None:
        validate_location(location)
        self.version += 1
        self._entries.append((location, item))

    def bulk_load(self, items: Iterable[tuple[Point, Any]]) -> None:
        pairs = validate_entries(items)
        self.version += 1
        self._entries = pairs

    def delete(self, location: Point, item: Any) -> bool:
        for i, (p, it) in enumerate(self._entries):
            if p == location and (it is item or it == item):
                self.version += 1
                del self._entries[i]
                return True
        return False

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> Iterator[tuple[Point, Any]]:
        return iter(self._entries)

    def range_query(self, rect: Rect) -> list[tuple[Point, Any]]:
        return [(p, item) for p, item in self._entries if rect.contains_point(p)]

    def nearest(self, query: Point, k: int) -> list[tuple[Point, Any]]:
        """The k entries closest to ``query`` in ascending distance order.

        Ties are broken by location then by insertion order, matching the
        deterministic tie-breaking of the tree-based searches.
        """
        ranked = sorted(
            enumerate(self._entries),
            key=lambda pair: (pair[1][0].distance_to(query), pair[1][0], pair[0]),
        )
        return [entry for _, entry in ranked[:k]]
