"""Minimum Bounding Method (MBM) for group kNN queries [24].

MBM generalizes best-first kNN to a *group* of query locations: a tree node
is ranked by ``F(mindist(MBR, l_1), ..., mindist(MBR, l_n))``.  Because F
is monotonically increasing and ``mindist`` lower-bounds every real
distance from any point inside the MBR, this value lower-bounds the
aggregate cost of every POI under the node, so best-first order remains
exact.  This is the plaintext kGNN black box run per candidate query by the
LSP (Algorithm 2 line 3).

Like :mod:`repro.gnn.knn` the search is index-agnostic: it walks whatever
hierarchy :meth:`~repro.index.base.SpatialIndex.traversal_roots` exposes,
and falls back to scoring every entry exhaustively for flat indexes —
identical answers, different work, both metered through the optional
:class:`~repro.index.base.IndexCounters`.

Node expansion is vectorised: once k points have been scored, one numpy
pass bounds every entry of an expanded node against ``kth``, the k-th
smallest exact score pushed so far, and only entries that can still reach
the answer are scored with the scalar code and pushed.  Pruned entries
could never be popped before the k-th result, so answers, scores and
counters are exactly those of the plain walk (see DESIGN.md, "kGNN hot
path").
"""

from __future__ import annotations

import heapq
import math
from itertools import count
from typing import Any, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.distance import mindist_point_rect
from repro.geometry.point import Point
from repro.gnn.aggregate import MAX, MIN, SUM, Aggregate
from repro.index.base import IndexCounters, SpatialIndex

#: Aggregates whose ``combine_rows`` matches ``combine`` to within
#: ``_SLACK``; any other aggregate scores every entry exactly.
_VECTOR_AGGREGATES = (SUM, MAX, MIN)

#: Relative slack on the numpy filter: ``np.hypot`` may differ from
#: ``math.hypot`` by 1 ulp and numpy may sum in another order, both orders
#: of magnitude below 1e-9.  The absolute term covers subnormal scores,
#: where one ulp is not relative to the value.
_SLACK = 1.0 + 1e-9
_TINY = 1e-300

#: Below this many entries one numpy pass costs more than scoring every
#: entry in Python (k-d traversal nodes have three children).
_MIN_VECTOR_ENTRIES = 8


def _fallback_kgnn(
    tree: SpatialIndex,
    locations: Sequence[Point],
    k: int,
    aggregate: Aggregate,
    counters: IndexCounters | None,
) -> list[tuple[Point, Any, float]]:
    """Score every entry; same ordering contract as the best-first walk."""
    ranked = sorted(
        (aggregate(p.distance_to(q) for q in locations), (p.x, p.y), i, p, item)
        for i, (p, item) in enumerate(tree.entries())
    )
    if counters is not None:
        counters.candidates_scored += len(ranked)
    return [(p, item, score) for score, _, _, p, item in ranked[:k]]


def mbm_kgnn(
    tree: SpatialIndex,
    locations: Sequence[Point],
    k: int,
    aggregate: Aggregate,
    counters: IndexCounters | None = None,
) -> list[tuple[Point, Any, float]]:
    """Exact top-``k`` group nearest neighbors.

    Returns ``(location, item, score)`` triples in ascending aggregate-cost
    order, where ``score = F(dis(p, l_1), ..., dis(p, l_n))``.  Ties break
    deterministically on location.
    """
    if k < 1:
        raise ConfigurationError("k must be positive")
    if not locations:
        raise ConfigurationError("kGNN query needs at least one location")
    roots = tree.traversal_roots()
    if roots is None:
        return _fallback_kgnn(tree, locations, k, aggregate, counters)
    vector = aggregate in _VECTOR_AGGREGATES
    qx = np.array([q.x for q in locations])
    qy = np.array([q.y for q in locations])
    seq = count()
    heap: list[tuple[float, tuple[float, float], int, bool, Any]] = []
    for root in roots:
        if root.mbr is not None:
            bound = aggregate(mindist_point_rect(q, root.mbr) for q in locations)
            heapq.heappush(heap, (bound, (0.0, 0.0), next(seq), False, root))
    # The k smallest exact scores pushed so far, negated (a max-heap); an
    # entry scoring above kth sits behind k pushed points and is never popped.
    best: list[float] = []
    kth = math.inf
    result: list[tuple[Point, Any, float]] = []
    while heap and len(result) < k:
        score, _, _, is_point, payload = heapq.heappop(heap)
        if is_point:
            p, item = payload
            result.append((p, item, score))
            continue
        node = payload
        if counters is not None:
            counters.nodes_visited += 1
        if node.is_leaf:
            if counters is not None:
                counters.candidates_scored += len(node.points)
            points, items = node.points, node.items
            if vector and kth < math.inf and len(points) >= _MIN_VECTOR_ENTRIES:
                xs = np.array([p.x for p in points])
                ys = np.array([p.y for p in points])
                bounds = aggregate.combine_rows(
                    np.hypot(xs[:, None] - qx, ys[:, None] - qy)
                )
                survivors = np.flatnonzero(bounds <= kth * _SLACK + _TINY).tolist()
            else:
                survivors = range(len(points))
            for i in survivors:
                p = points[i]
                cost = aggregate(p.distance_to(q) for q in locations)
                if cost > kth:
                    continue
                heapq.heappush(heap, (cost, (p.x, p.y), next(seq), True, (p, items[i])))
                if len(best) < k:
                    heapq.heappush(best, -cost)
                else:
                    heapq.heapreplace(best, -cost)
                if len(best) == k:
                    kth = -best[0]
        else:
            children = [child for child in node.children if child.mbr is not None]
            if vector and kth < math.inf and len(children) >= _MIN_VECTOR_ENTRIES:
                rects = [child.mbr for child in children]
                xmin = np.array([r.xmin for r in rects])[:, None]
                ymin = np.array([r.ymin for r in rects])[:, None]
                xmax = np.array([r.xmax for r in rects])[:, None]
                ymax = np.array([r.ymax for r in rects])[:, None]
                dx = np.maximum(np.maximum(xmin - qx, 0.0), qx - xmax)
                dy = np.maximum(np.maximum(ymin - qy, 0.0), qy - ymax)
                bounds = aggregate.combine_rows(np.hypot(dx, dy))
                keep = np.flatnonzero(bounds <= kth * _SLACK + _TINY).tolist()
                children = [children[i] for i in keep]
            for child in children:
                bound = aggregate(mindist_point_rect(q, child.mbr) for q in locations)
                if bound > kth:
                    continue
                heapq.heappush(
                    heap,
                    (bound, (child.mbr.xmin, child.mbr.ymin), next(seq), False, child),
                )
    return result
