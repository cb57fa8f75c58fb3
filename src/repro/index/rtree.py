"""R-tree with quadratic split, STR bulk loading, and deletion.

This is the LSP's index substrate: the MBM group-kNN algorithm [24] and the
plain best-first kNN both run over it.  The implementation follows Guttman's
original design (choose-leaf by least enlargement, quadratic split,
condense-tree deletion) plus Sort-Tile-Recursive bulk loading for fast
construction of the 62k-POI evaluation database.  Deletion support backs the
paper's "easily handles a dynamic database" claim (Section 1, novelty 1) —
demonstrated in ``examples/dynamic_database.py``.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Iterator

from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.base import SpatialIndex, validate_entries, validate_location


def str_slices(
    pairs: list[tuple[Point, Any]], cap: int
) -> list[list[tuple[Point, Any]]]:
    """The vertical STR slices of ``pairs`` (already sorted by ``(x, y)``).

    Pure and deterministic: the slice boundaries depend only on the entry
    count and the node capacity, which is what lets
    :func:`repro.spatial.str_build.parallel_str_bulk_load` hand each slice
    to a different worker process and still stitch the exact tree a serial
    build produces.
    """
    if not pairs:
        return []
    leaf_count = math.ceil(len(pairs) / cap)
    slice_count = math.ceil(math.sqrt(leaf_count))
    slice_size = math.ceil(len(pairs) / slice_count)
    return [pairs[start : start + slice_size] for start in range(0, len(pairs), slice_size)]


def slice_leaf_chunks(
    chunk: list[tuple[Point, Any]], cap: int
) -> list[tuple[list[Point], list[Any]]]:
    """Sort one STR slice by ``(y, x)`` and cut it into leaf-sized chunks.

    Returns picklable ``(points, items)`` payloads — the unit of work a
    parallel STR build ships to worker processes.
    """
    ordered = sorted(chunk, key=lambda e: (e[0].y, e[0].x))
    out: list[tuple[list[Point], list[Any]]] = []
    for leaf_start in range(0, len(ordered), cap):
        sub = ordered[leaf_start : leaf_start + cap]
        out.append(([p for p, _ in sub], [item for _, item in sub]))
    return out


class _Node:
    """An R-tree node: a leaf holds (Point, item) pairs, an inner node holds children."""

    __slots__ = ("is_leaf", "points", "items", "children", "mbr")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.points: list[Point] = []
        self.items: list[Any] = []
        self.children: list["_Node"] = []
        self.mbr: Rect | None = None

    def entry_count(self) -> int:
        return len(self.points) if self.is_leaf else len(self.children)

    def recompute_mbr(self) -> None:
        if self.is_leaf:
            if self.points:
                self.mbr = Rect.from_points(self.points)
            else:
                self.mbr = None
        else:
            rects = [c.mbr for c in self.children if c.mbr is not None]
            if rects:
                mbr = rects[0]
                for r in rects[1:]:
                    mbr = mbr.union(r)
                self.mbr = mbr
            else:
                self.mbr = None

    def extend_mbr(self, rect: Rect) -> None:
        self.mbr = rect if self.mbr is None else self.mbr.union(rect)


class RTree(SpatialIndex):
    """Guttman R-tree over point data.

    Parameters
    ----------
    max_entries:
        Node fan-out M; nodes split when exceeding it.
    min_entries:
        Fill floor m (defaults to ``ceil(0.4 * M)``); deletion reinserts the
        content of underfull nodes.
    split:
        Overflow split strategy: ``"quadratic"`` (Guttman's default, better
        trees) or ``"linear"`` (O(M) seed picking, faster inserts, looser
        MBRs) — compared by the index split ablation test.
    """

    def __init__(
        self,
        max_entries: int = 32,
        min_entries: int | None = None,
        split: str = "quadratic",
    ) -> None:
        if max_entries < 4:
            raise ConfigurationError("max_entries must be at least 4")
        self.max_entries = max_entries
        self.min_entries = (
            min_entries if min_entries is not None else math.ceil(0.4 * max_entries)
        )
        if not 2 <= self.min_entries <= max_entries // 2:
            raise ConfigurationError(
                f"min_entries must lie in [2, {max_entries // 2}]"
            )
        if split not in ("quadratic", "linear"):
            raise ConfigurationError("split must be 'quadratic' or 'linear'")
        self.split_strategy = split
        self.root = _Node(is_leaf=True)
        self._count = 0
        #: Monotone mutation counter.  Every content change (insert, delete,
        #: bulk load) bumps it, so result caches keyed on ``(version, query)``
        #: invalidate automatically when the database moves under them.
        self.version = 0

    # ------------------------------------------------------------------ basic

    def __len__(self) -> int:
        return self._count

    @property
    def height(self) -> int:
        """Number of levels (a lone leaf root has height 1)."""
        h = 1
        node = self.root
        while not node.is_leaf:
            node = node.children[0]
            h += 1
        return h

    def entries(self) -> Iterator[tuple[Point, Any]]:
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                yield from zip(node.points, node.items, strict=True)
            else:
                stack.extend(node.children)

    # ----------------------------------------------------------------- insert

    def insert(self, location: Point, item: Any) -> None:
        validate_location(location)
        self.version += 1
        leaf_rect = Rect.from_point(location)
        leaf = self._choose_leaf(self.root, leaf_rect)
        leaf.points.append(location)
        leaf.items.append(item)
        leaf.extend_mbr(leaf_rect)
        self._count += 1
        if leaf.entry_count() > self.max_entries:
            self._split_and_propagate(leaf)
        else:
            self._tighten_path(location)

    def _choose_leaf(self, node: _Node, rect: Rect) -> _Node:
        self._path: list[_Node] = [node]
        while not node.is_leaf:
            best = min(
                node.children,
                key=lambda c: (c.mbr.enlargement(rect), c.mbr.area),  # type: ignore[union-attr]
            )
            node = best
            self._path.append(node)
        return node

    def _tighten_path(self, location: Point) -> None:
        rect = Rect.from_point(location)
        for node in self._path:
            node.extend_mbr(rect)

    def _split_and_propagate(self, node: _Node) -> None:
        """Split an overfull node and push splits up the recorded path."""
        path = self._path
        while node.entry_count() > self.max_entries:
            sibling = self._split_node(node)
            if node is self.root:
                new_root = _Node(is_leaf=False)
                new_root.children = [node, sibling]
                new_root.recompute_mbr()
                self.root = new_root
                return
            parent = path[path.index(node) - 1]
            parent.children.append(sibling)
            parent.recompute_mbr()
            node = parent
        for ancestor in reversed(path[: path.index(node) + 1]):
            ancestor.recompute_mbr()

    def _split_node(self, node: _Node) -> _Node:
        """Split an overfull node with the configured strategy."""
        if self.split_strategy == "linear":
            return self._distribute_split(node, self._pick_seeds_linear)
        return self._distribute_split(node, self._pick_seeds)

    def _quadratic_split(self, node: _Node) -> _Node:
        """Backwards-compatible alias for the quadratic strategy."""
        return self._distribute_split(node, self._pick_seeds)

    def _distribute_split(self, node: _Node, pick_seeds) -> _Node:
        """Guttman's split skeleton; ``pick_seeds`` chooses the two seeds."""
        if node.is_leaf:
            rects = [Rect.from_point(p) for p in node.points]
            payloads: list[Any] = list(zip(node.points, node.items, strict=True))
        else:
            rects = [c.mbr for c in node.children]  # type: ignore[misc]
            payloads = list(node.children)

        seed_a, seed_b = pick_seeds(rects)
        group_a = [seed_a]
        group_b = [seed_b]
        mbr_a = rects[seed_a]
        mbr_b = rects[seed_b]
        remaining = [i for i in range(len(rects)) if i not in (seed_a, seed_b)]
        total = len(rects)
        while remaining:
            # Force-assign when one group must absorb everything left to
            # reach the minimum fill.
            if len(group_a) + len(remaining) == self.min_entries:
                group_a.extend(remaining)
                for i in remaining:
                    mbr_a = mbr_a.union(rects[i])
                break
            if len(group_b) + len(remaining) == self.min_entries:
                group_b.extend(remaining)
                for i in remaining:
                    mbr_b = mbr_b.union(rects[i])
                break
            # Pick the entry with the greatest preference difference.
            best_idx = max(
                remaining,
                key=lambda i: abs(mbr_a.enlargement(rects[i]) - mbr_b.enlargement(rects[i])),
            )
            remaining.remove(best_idx)
            grow_a = mbr_a.enlargement(rects[best_idx])
            grow_b = mbr_b.enlargement(rects[best_idx])
            if (grow_a, mbr_a.area, len(group_a)) <= (grow_b, mbr_b.area, len(group_b)):
                group_a.append(best_idx)
                mbr_a = mbr_a.union(rects[best_idx])
            else:
                group_b.append(best_idx)
                mbr_b = mbr_b.union(rects[best_idx])
        assert len(group_a) + len(group_b) == total

        sibling = _Node(is_leaf=node.is_leaf)
        if node.is_leaf:
            pairs_a = [payloads[i] for i in group_a]
            pairs_b = [payloads[i] for i in group_b]
            node.points = [p for p, _ in pairs_a]
            node.items = [it for _, it in pairs_a]
            sibling.points = [p for p, _ in pairs_b]
            sibling.items = [it for _, it in pairs_b]
        else:
            node.children = [payloads[i] for i in group_a]
            sibling.children = [payloads[i] for i in group_b]
        node.recompute_mbr()
        sibling.recompute_mbr()
        return sibling

    @staticmethod
    def _pick_seeds(rects: list[Rect]) -> tuple[int, int]:
        """The pair wasting the most area when grouped together."""
        best = (-1.0, 0, 1)
        for i in range(len(rects)):
            for j in range(i + 1, len(rects)):
                waste = rects[i].union(rects[j]).area - rects[i].area - rects[j].area
                if waste > best[0]:
                    best = (waste, i, j)
        return best[1], best[2]

    @staticmethod
    def _pick_seeds_linear(rects: list[Rect]) -> tuple[int, int]:
        """Guttman's linear seed pick: most-separated pair per dimension.

        For each axis, find the rectangle with the highest low side and the
        one with the lowest high side; normalize their separation by the
        axis extent and take the dimension with the greatest value.
        """
        best = (-math.inf, 0, 1)
        for axis in range(2):
            if axis == 0:
                lows = [r.xmin for r in rects]
                highs = [r.xmax for r in rects]
            else:
                lows = [r.ymin for r in rects]
                highs = [r.ymax for r in rects]
            extent = max(highs) - min(lows)
            highest_low = max(range(len(rects)), key=lambda i: lows[i])
            lowest_high = min(range(len(rects)), key=lambda i: highs[i])
            if highest_low == lowest_high:
                continue
            separation = (lows[highest_low] - highs[lowest_high]) / (extent or 1.0)
            if separation > best[0]:
                best = (separation, lowest_high, highest_low)
        if best[1] == best[2]:  # degenerate: all rectangles identical
            return 0, 1
        return best[1], best[2]

    # -------------------------------------------------------------- bulk load

    def bulk_load(self, items: Iterable[tuple[Point, Any]]) -> None:
        """Sort-Tile-Recursive construction; replaces the current contents.

        Split into :func:`str_slices` / :func:`slice_leaf_chunks` /
        :meth:`load_from_leaf_chunks` so the parallel bulk loader of
        :mod:`repro.spatial.str_build` runs the identical pipeline with the
        per-slice work farmed out to processes.
        """
        pairs = validate_entries(items)
        pairs.sort(key=lambda e: (e[0].x, e[0].y))
        chunks = (
            payload
            for chunk in str_slices(pairs, self.max_entries)
            for payload in slice_leaf_chunks(chunk, self.max_entries)
        )
        self.load_from_leaf_chunks(chunks, len(pairs))

    def make_leaf(self, points: list[Point], items: list[Any]) -> _Node:
        """Materialize one bulk-load leaf from a picklable chunk payload."""
        leaf = _Node(is_leaf=True)
        leaf.points = list(points)
        leaf.items = list(items)
        leaf.recompute_mbr()
        return leaf

    def load_from_leaf_chunks(
        self, chunks: Iterable[tuple[list[Point], list[Any]]], count: int
    ) -> None:
        """Replace the contents with pre-tiled leaves, packing levels upward.

        ``chunks`` must be the output of :func:`slice_leaf_chunks` applied
        to every slice in order — the packing is deterministic in the chunk
        sequence, never in how the chunks were computed.
        """
        self.version += 1
        leaves = [self.make_leaf(points, items) for points, items in chunks]
        if not leaves:
            self.root = _Node(is_leaf=True)
            self._count = 0
            return
        cap = self.max_entries
        # Pack levels upward until a single root remains.
        level = leaves
        while len(level) > 1:
            level.sort(key=lambda nd: (nd.mbr.center.x, nd.mbr.center.y))  # type: ignore[union-attr]
            node_count = math.ceil(len(level) / cap)
            slice_count = math.ceil(math.sqrt(node_count))
            slice_size = math.ceil(len(level) / slice_count)
            parents: list[_Node] = []
            for start in range(0, len(level), slice_size):
                chunk = sorted(
                    level[start : start + slice_size],
                    key=lambda nd: (nd.mbr.center.y, nd.mbr.center.x),  # type: ignore[union-attr]
                )
                for node_start in range(0, len(chunk), cap):
                    parent = _Node(is_leaf=False)
                    parent.children = chunk[node_start : node_start + cap]
                    parent.recompute_mbr()
                    parents.append(parent)
            level = parents
        self.root = level[0]
        self._count = count

    def traversal_roots(self) -> list[_Node]:
        """Best-first traversal hook (see :meth:`SpatialIndex.traversal_roots`)."""
        return [self.root]

    # ----------------------------------------------------------------- delete

    def delete(self, location: Point, item: Any) -> bool:
        """Remove one entry matching ``(location, item)``.

        Returns True when an entry was removed.  Underfull leaves along the
        path are dissolved and their entries reinserted (condense-tree).
        """
        found = self._find_leaf(self.root, location, item, [])
        if found is None:
            return False
        self.version += 1
        leaf, path = found
        idx = next(
            i
            for i, (p, it) in enumerate(zip(leaf.points, leaf.items, strict=True))
            if p == location and it is item or (p == location and it == item)
        )
        leaf.points.pop(idx)
        leaf.items.pop(idx)
        self._count -= 1
        self._condense(leaf, path)
        return True

    def _find_leaf(
        self, node: _Node, location: Point, item: Any, path: list[_Node]
    ) -> tuple[_Node, list[_Node]] | None:
        if node.is_leaf:
            for p, it in zip(node.points, node.items, strict=True):
                if p == location and (it is item or it == item):
                    return node, path
            return None
        for child in node.children:
            if child.mbr is not None and child.mbr.contains_point(location):
                result = self._find_leaf(child, location, item, path + [node])
                if result is not None:
                    return result
        return None

    def _condense(self, leaf: _Node, path: list[_Node]) -> None:
        orphans: list[tuple[Point, Any]] = []
        node = leaf
        for parent in reversed(path):
            if node.entry_count() < self.min_entries and node is not self.root:
                parent.children.remove(node)
                orphans.extend(
                    zip(node.points, node.items, strict=True)
                    if node.is_leaf
                    else [e for c in self._collect_leaves(node) for e in c]
                )
            node.recompute_mbr()
            node = parent
        self.root.recompute_mbr()
        if not self.root.is_leaf and len(self.root.children) == 1:
            self.root = self.root.children[0]
        self._count -= len(orphans)
        for p, it in orphans:
            self.insert(p, it)

    def _collect_leaves(self, node: _Node) -> list[list[tuple[Point, Any]]]:
        if node.is_leaf:
            return [list(zip(node.points, node.items, strict=True))]
        collected: list[list[tuple[Point, Any]]] = []
        for child in node.children:
            collected.extend(self._collect_leaves(child))
        return collected

    # ------------------------------------------------------------------ query

    def range_query(self, rect: Rect) -> list[tuple[Point, Any]]:
        result: list[tuple[Point, Any]] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.mbr is None or not node.mbr.intersects(rect):
                continue
            if node.is_leaf:
                for p, item in zip(node.points, node.items, strict=True):
                    if rect.contains_point(p):
                        result.append((p, item))
            else:
                stack.extend(node.children)
        return result
