"""Uniform grid index over a bounded location space.

The APNN baseline [36] partitions the data space into ``g x g`` cells and
pre-computes a kNN answer per cell center; this index provides the cell
partitioning, point-to-cell mapping, and per-cell entry buckets it needs.
It also doubles as a general-purpose spatial index for comparison tests.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator

from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.space import LocationSpace
from repro.index.base import (
    SpatialIndex,
    TraversalNode,
    validate_entries,
    validate_location,
)


class GridIndex(SpatialIndex):
    """A ``g x g`` uniform grid of entry buckets over ``space``."""

    def __init__(self, space: LocationSpace, cells_per_side: int) -> None:
        if cells_per_side < 1:
            raise ConfigurationError("grid needs at least one cell per side")
        self.space = space
        self.cells_per_side = cells_per_side
        self._buckets: dict[tuple[int, int], list[tuple[Point, Any]]] = {}
        self._count = 0
        self.version = 0

    def cell_of(self, p: Point) -> tuple[int, int]:
        """The (column, row) cell containing ``p``; boundary points clamp inward."""
        b = self.space.bounds
        if not b.contains_point(p):
            raise ConfigurationError(f"point {p} outside the location space")
        g = self.cells_per_side
        col = min(int((p.x - b.xmin) / b.width * g), g - 1)
        row = min(int((p.y - b.ymin) / b.height * g), g - 1)
        return col, row

    def cell_rect(self, col: int, row: int) -> Rect:
        """The rectangle covered by cell ``(col, row)``."""
        g = self.cells_per_side
        if not (0 <= col < g and 0 <= row < g):
            raise ConfigurationError(f"cell ({col}, {row}) out of range for g={g}")
        b = self.space.bounds
        w = b.width / g
        h = b.height / g
        return Rect(b.xmin + col * w, b.ymin + row * h, b.xmin + (col + 1) * w, b.ymin + (row + 1) * h)

    def cell_center(self, col: int, row: int) -> Point:
        """The center of cell ``(col, row)`` — the APNN precomputation anchor."""
        return self.cell_rect(col, row).center

    def all_cells(self) -> Iterator[tuple[int, int]]:
        """Iterate over every (col, row) pair."""
        g = self.cells_per_side
        return ((c, r) for c in range(g) for r in range(g))

    def insert(self, location: Point, item: Any) -> None:
        validate_location(location)
        self.version += 1
        self._buckets.setdefault(self.cell_of(location), []).append((location, item))
        self._count += 1

    def bulk_load(self, items: Iterable[tuple[Point, Any]]) -> None:
        """One-pass bucket fill; replaces the current contents.

        Validates every entry up front (so a NaN halfway through an
        iterable cannot leave the grid half-loaded), then bins without the
        per-insert method dispatch — the same entries land in the same
        buckets in the same order as an insert loop would produce.
        """
        pairs = validate_entries(items)
        self.version += 1
        buckets: dict[tuple[int, int], list[tuple[Point, Any]]] = {}
        cell_of = self.cell_of
        for location, item in pairs:
            buckets.setdefault(cell_of(location), []).append((location, item))
        self._buckets = buckets
        self._count = len(pairs)

    def delete(self, location: Point, item: Any) -> bool:
        if not self.space.bounds.contains_point(location):
            return False
        key = self.cell_of(location)
        bucket = self._buckets.get(key, [])
        for i, (p, it) in enumerate(bucket):
            if p == location and (it is item or it == item):
                self.version += 1
                del bucket[i]
                if not bucket:
                    del self._buckets[key]
                self._count -= 1
                return True
        return False

    def traversal_roots(self) -> list[TraversalNode]:
        """A synthetic two-level hierarchy: one leaf node per occupied cell.

        Built on demand from the live buckets (O(n)); leaf MBRs are tight
        over the actual points, so best-first searches prune exactly.
        Cells are visited in sorted key order for determinism.  The MBM
        walk reads it through :meth:`flat_view`, built once per version.
        """
        children: list[TraversalNode] = []
        root_mbr: Rect | None = None
        for key in sorted(self._buckets):
            bucket = self._buckets[key]
            if not bucket:
                continue
            mbr = Rect.from_points([p for p, _ in bucket])
            leaf = TraversalNode(
                is_leaf=True,
                points=[p for p, _ in bucket],
                items=[item for _, item in bucket],
                mbr=mbr,
            )
            children.append(leaf)
            root_mbr = mbr if root_mbr is None else root_mbr.union(mbr)
        root = TraversalNode(is_leaf=False, children=children, mbr=root_mbr)
        return [root]

    def __len__(self) -> int:
        return self._count

    def entries(self) -> Iterator[tuple[Point, Any]]:
        for bucket in self._buckets.values():
            yield from bucket

    def bucket(self, col: int, row: int) -> list[tuple[Point, Any]]:
        """Entries stored in one cell (empty list when the cell is vacant)."""
        return list(self._buckets.get((col, row), ()))

    def range_query(self, rect: Rect) -> list[tuple[Point, Any]]:
        b = self.space.bounds
        clipped = rect.clip(b) if rect.intersects(b) else None
        if clipped is None:
            return []
        lo = self.cell_of(Point(clipped.xmin, clipped.ymin))
        hi = self.cell_of(Point(clipped.xmax, clipped.ymax))
        result: list[tuple[Point, Any]] = []
        for col in range(lo[0], hi[0] + 1):
            for row in range(lo[1], hi[1] + 1):
                for p, item in self._buckets.get((col, row), ()):
                    if rect.contains_point(p):
                        result.append((p, item))
        return result
