"""Best-first k-nearest-neighbor search over any spatial index.

The classic incremental algorithm: a priority queue ordered by ``mindist``
interleaves tree nodes and data points; a point popped from the queue is
guaranteed nearer than everything still enqueued, so the first k popped
points are the exact answer.

The search is index-agnostic: any :class:`~repro.index.base.SpatialIndex`
whose :meth:`~repro.index.base.SpatialIndex.traversal_roots` returns a
node hierarchy (R-tree, grid's synthetic two-level tree) is walked
best-first; an index without one (brute force) falls back to an exhaustive
scan sorted with the same deterministic tie-breaking, so answers are
identical either way — only the work differs.
Pass an :class:`~repro.index.base.IndexCounters` to meter that work.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Any, Iterator

from repro.errors import positive_int
from repro.geometry.distance import mindist_point_rect
from repro.geometry.point import Point
from repro.index.base import IndexCounters, SpatialIndex


def _fallback_stream(
    tree: SpatialIndex, query: Point, counters: IndexCounters | None
) -> Iterator[tuple[float, Point, Any]]:
    """Exhaustive-scan stream for indexes without a traversal hierarchy.

    Scores every entry once, then yields in the same
    ``(distance, location, insertion order)`` order the best-first walk
    produces, keeping stream semantics identical across index kinds.
    """
    ranked = sorted(
        (p.distance_to(query), (p.x, p.y), i, p, item)
        for i, (p, item) in enumerate(tree.entries())
    )
    if counters is not None:
        counters.candidates_scored += len(ranked)
    for dist, _, _, p, item in ranked:
        yield dist, p, item


def incremental_nearest(
    tree: SpatialIndex, query: Point, counters: IndexCounters | None = None
):
    """Yield ``(distance, point, item)`` in ascending distance order, lazily.

    The incremental form of best-first search: consumers pull as many
    neighbors as they need (the MQM group-kNN algorithm advances n such
    streams round-robin).  State lives in the generator's priority queue.
    """
    roots = tree.traversal_roots()
    if roots is None:
        yield from _fallback_stream(tree, query, counters)
        return
    seq = count()
    heap: list[tuple[float, tuple[float, float], int, bool, Any]] = []
    for root in roots:
        if root.mbr is not None:
            heapq.heappush(
                heap,
                (mindist_point_rect(query, root.mbr), (0.0, 0.0), next(seq), False, root),
            )
    while heap:
        dist, _, _, is_point, payload = heapq.heappop(heap)
        if is_point:
            p, item = payload
            yield dist, p, item
            continue
        node = payload
        if counters is not None:
            counters.nodes_visited += 1
        if node.is_leaf:
            if counters is not None:
                counters.candidates_scored += len(node.points)
            for p, item in zip(node.points, node.items, strict=True):
                heapq.heappush(
                    heap, (p.distance_to(query), (p.x, p.y), next(seq), True, (p, item))
                )
        else:
            for child in node.children:
                if child.mbr is not None:
                    heapq.heappush(
                        heap,
                        (
                            mindist_point_rect(query, child.mbr),
                            (child.mbr.xmin, child.mbr.ymin),
                            next(seq),
                            False,
                            child,
                        ),
                    )


def best_first_knn(
    tree: SpatialIndex,
    query: Point,
    k: int,
    counters: IndexCounters | None = None,
) -> list[tuple[Point, Any]]:
    """The ``k`` entries of ``tree`` nearest to ``query``, ascending by distance.

    Ties break deterministically on location then insertion order (via the
    queue sequence number), so repeated runs over the same tree agree.
    """
    k = positive_int(k, "k")
    stream = incremental_nearest(tree, query, counters)
    result: list[tuple[Point, Any]] = []
    for _, p, item in stream:
        result.append((p, item))
        if len(result) == k:
            break
    return result
