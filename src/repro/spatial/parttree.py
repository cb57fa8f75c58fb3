"""Spill partition trees: kd / rp / 2-means split rules behind SpatialIndex.

After the spatialtree design: every inner node projects its points onto a
split direction ``w`` and sends those below the threshold left, the rest
right.  The ``rule`` picks ``w``:

- ``"kd"`` — the axis of maximum variance (axis-aligned, the classic
  k-d split),
- ``"rp"`` — the best of ``samples_rp`` seeded random Gaussian directions
  (an RP-tree; oblique splits adapt to intrinsic data shape),
- ``"2-means"`` — the direction between two Lloyd-iterated centroids
  (splits along the locally dominant cluster structure).

``spill`` in ``[0, 0.5)`` duplicates the fraction of points nearest the
cut into *both* children.  Spill only pays off on the approximate path:
:meth:`PartitionTree.candidate_entries` descends a single branch per level
(defeatist search), and the overlap makes near-boundary neighbors
reachable from either side, buying recall at a controlled candidate-set
growth.

Exactness is preserved regardless of rule or spill: every node stores the
true MBR of the points beneath it, so :meth:`range_query` and
:meth:`nearest` prune with rectangles exactly like an R-tree (entries
reached twice through spilled subtrees are deduplicated by entry id).
When ``spill == 0`` and no inserts are buffered the tree also exposes the
generic best-first traversal hook, so MBM/kNN run over it natively.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterable, Iterator

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.distance import mindist_point_rect
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.base import SpatialIndex, validate_entries, validate_location

SPLIT_RULES = ("kd", "rp", "2-means")


class _PTNode:
    """One partition-tree node, shaped like the R-tree node protocol.

    Leaves carry ``points``/``items`` plus the parallel ``entry_ids`` used
    to deduplicate spilled entries; inner nodes carry exactly two
    ``children`` and the split ``(w, threshold)`` used by the defeatist
    descent.  ``arrays`` is the version-stamped numpy cache of
    :func:`repro.index.base.node_arrays`.
    """

    __slots__ = (
        "is_leaf", "points", "items", "entry_ids", "children",
        "mbr", "w", "threshold", "arrays",
    )

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.points: list[Point] = []
        self.items: list[Any] = []
        self.entry_ids: list[int] = []
        self.children: list["_PTNode"] = []
        self.mbr: Rect | None = None
        self.w: tuple[float, float] = (1.0, 0.0)
        self.threshold: float = 0.0
        self.arrays: tuple[int, np.ndarray] | None = None


class PartitionTree(SpatialIndex):
    """A spill tree over one of the :data:`SPLIT_RULES`.

    Parameters
    ----------
    rule:
        Split-direction rule: ``"kd"``, ``"rp"``, or ``"2-means"``.
    spill:
        Fraction of each node's points (those nearest the cut) duplicated
        into both children; ``0.0`` builds a plain partition tree.
    leaf_capacity:
        Maximum entries per leaf.
    seed:
        Seeds every random draw (rp directions, 2-means starts); builds
        are fully deterministic in ``(entries, parameters, seed)``.
    samples_rp / steps_2means:
        Candidate directions per rp split / Lloyd iterations per 2-means
        split.
    """

    def __init__(
        self,
        rule: str = "rp",
        spill: float = 0.0,
        leaf_capacity: int = 32,
        seed: int = 0,
        samples_rp: int = 10,
        steps_2means: int = 8,
    ) -> None:
        if rule not in SPLIT_RULES:
            raise ConfigurationError(
                f"unknown split rule {rule!r}; known: {list(SPLIT_RULES)}"
            )
        if not 0.0 <= spill < 0.5:
            raise ConfigurationError("spill must lie in [0, 0.5)")
        if leaf_capacity < 1:
            raise ConfigurationError("leaf_capacity must be >= 1")
        self.rule = rule
        self.spill = spill
        self.leaf_capacity = leaf_capacity
        self.seed = seed
        self.samples_rp = samples_rp
        self.steps_2means = steps_2means
        self.root: _PTNode | None = None
        self._entries: list[tuple[Point, Any]] = []
        self._overflow: list[tuple[Point, Any]] = []
        self.version = 0

    # ------------------------------------------------------------------ build

    def bulk_load(self, items: Iterable[tuple[Point, Any]]) -> None:
        self.version += 1
        self._entries = validate_entries(items)
        self._overflow = []
        if not self._entries:
            self.root = None
            return
        coords = np.array(
            [(p.x, p.y) for p, _ in self._entries], dtype=np.float64
        )
        self._node_counter = 0
        self.root = self._build(coords, np.arange(len(self._entries)))

    def _split_direction(
        self, coords: np.ndarray, idx: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        sub = coords[idx]
        if self.rule == "kd":
            var = sub.var(axis=0)
            axis = int(np.argmax(var))
            w = np.zeros(2)
            w[axis] = 1.0
            return w
        if self.rule == "rp":
            cands = rng.standard_normal((self.samples_rp, 2))
            norms = np.linalg.norm(cands, axis=1)
            norms[norms == 0.0] = 1.0
            cands /= norms[:, None]
            spreads = (sub @ cands.T).var(axis=0)
            return cands[int(np.argmax(spreads))]
        # 2-means: a few Lloyd steps from two seeded starts; the split
        # direction is the line between the final centroids.
        starts = rng.choice(len(sub), size=2, replace=False)
        centers = sub[starts].astype(np.float64)
        for _ in range(self.steps_2means):
            d0 = ((sub - centers[0]) ** 2).sum(axis=1)
            d1 = ((sub - centers[1]) ** 2).sum(axis=1)
            mask = d1 < d0
            if mask.all() or (~mask).all():
                break
            centers = np.array([sub[~mask].mean(axis=0), sub[mask].mean(axis=0)])
        w = centers[1] - centers[0]
        norm = float(np.linalg.norm(w))
        if norm == 0.0:  # all points identical: any direction works
            return np.array([1.0, 0.0])
        return w / norm

    def _build(self, coords: np.ndarray, idx: np.ndarray) -> _PTNode:
        node_id = self._node_counter
        self._node_counter += 1
        sub_points = [self._entries[i][0] for i in idx]
        if len(idx) <= self.leaf_capacity:
            leaf = _PTNode(is_leaf=True)
            leaf.points = sub_points
            leaf.items = [self._entries[i][1] for i in idx]
            leaf.entry_ids = [int(i) for i in idx]
            leaf.mbr = Rect.from_points(sub_points)
            return leaf
        rng = np.random.default_rng([self.seed, node_id])
        w = self._split_direction(coords, idx, rng)
        proj = coords[idx] @ w
        order = np.argsort(proj, kind="stable")
        n = len(idx)
        spill_count = int(self.spill * n / 2.0)
        half = (n + 1) // 2
        left_hi = half + spill_count
        right_lo = half - spill_count
        left_idx = idx[order[:left_hi]]
        right_idx = idx[order[right_lo:]]
        if len(left_idx) >= n or len(right_idx) >= n:
            # Degenerate split (e.g. all projections equal under maximal
            # spill): fall back to a plain leaf to guarantee termination.
            leaf = _PTNode(is_leaf=True)
            leaf.points = sub_points
            leaf.items = [self._entries[i][1] for i in idx]
            leaf.entry_ids = [int(i) for i in idx]
            leaf.mbr = Rect.from_points(sub_points)
            return leaf
        node = _PTNode(is_leaf=False)
        node.w = (float(w[0]), float(w[1]))
        node.threshold = float(
            (proj[order[left_hi - 1]] + proj[order[right_lo]]) / 2.0
        )
        node.children = [
            self._build(coords, left_idx),
            self._build(coords, right_idx),
        ]
        node.mbr = node.children[0].mbr.union(node.children[1].mbr)
        return node

    # ------------------------------------------------------------------ basic

    def insert(self, location: Point, item: Any) -> None:
        """Buffered insert: scanned linearly by queries until re-bulk-loaded."""
        validate_location(location)
        self.version += 1
        self._overflow.append((location, item))

    def __len__(self) -> int:
        return len(self._entries) + len(self._overflow)

    def entries(self) -> Iterator[tuple[Point, Any]]:
        yield from self._entries
        yield from self._overflow

    @property
    def overflow_size(self) -> int:
        return len(self._overflow)

    def traversal_roots(self) -> list[_PTNode] | None:
        """Native best-first hook — only when traversal cannot double-count.

        With ``spill > 0`` leaves share entries and with buffered inserts
        the tree is incomplete; both cases return None so generic searches
        take the exact exhaustive fallback instead.
        """
        if self.spill > 0.0 or self._overflow or self.root is None:
            return None
        return [self.root]

    # ----------------------------------------------------------- exact paths

    def range_query(self, rect: Rect) -> list[tuple[Point, Any]]:
        result = [
            (p, item) for p, item in self._overflow if rect.contains_point(p)
        ]
        if self.root is None:
            return result
        seen: set[int] = set()
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.mbr is None or not node.mbr.intersects(rect):
                continue
            if node.is_leaf:
                for p, item, eid in zip(
                    node.points, node.items, node.entry_ids, strict=True
                ):
                    if eid not in seen and rect.contains_point(p):
                        seen.add(eid)
                        result.append((p, item))
            else:
                stack.extend(node.children)
        return result

    def nearest(self, query: Point, k: int) -> list[tuple[Point, Any]]:
        """Exact best-first kNN via node MBRs, spill-deduplicated."""
        if k < 1:
            raise ConfigurationError("k must be positive")
        seq = 0
        heap: list = []
        if self.root is not None and self.root.mbr is not None:
            heap.append(
                (mindist_point_rect(query, self.root.mbr), (0.0, 0.0), seq,
                 False, None, self.root)
            )
            seq += 1
        for p, item in self._overflow:
            heap.append(
                (p.distance_to(query), (p.x, p.y), seq, True, None, (p, item))
            )
            seq += 1
        heapq.heapify(heap)
        seen: set[int] = set()
        result: list[tuple[Point, Any]] = []
        while heap and len(result) < k:
            _, _, _, is_point, eid, payload = heapq.heappop(heap)
            if is_point:
                if eid is None or eid not in seen:
                    if eid is not None:
                        seen.add(eid)
                    result.append(payload)
                continue
            node = payload
            if node.is_leaf:
                for p, item, entry_id in zip(
                    node.points, node.items, node.entry_ids, strict=True
                ):
                    heapq.heappush(
                        heap,
                        (p.distance_to(query), (p.x, p.y), seq, True,
                         entry_id, (p, item)),
                    )
                    seq += 1
            else:
                for child in node.children:
                    if child.mbr is not None:
                        heapq.heappush(
                            heap,
                            (mindist_point_rect(query, child.mbr),
                             (child.mbr.xmin, child.mbr.ymin), seq, False,
                             None, child),
                        )
                        seq += 1
        return result

    # ------------------------------------------------------ approximate path

    def candidate_entries(self, query: Point) -> list[tuple[Point, Any]]:
        """Defeatist single-branch descent: the sub-linear candidate set.

        Follows the split decision at every inner node (no backtracking)
        and returns the reached leaf's entries plus any buffered inserts.
        With ``spill > 0`` the overlap region makes near-boundary true
        neighbors reachable despite the greedy descent; recall is measured,
        not guaranteed (see the engine's calibration).
        """
        out: list[tuple[Point, Any]] = []
        node = self.root
        while node is not None and not node.is_leaf:
            t = query.x * node.w[0] + query.y * node.w[1]
            node = node.children[0] if t <= node.threshold else node.children[1]
        if node is not None:
            out.extend(zip(node.points, node.items, strict=True))
        out.extend(self._overflow)
        return out
