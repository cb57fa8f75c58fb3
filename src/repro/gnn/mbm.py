"""Minimum Bounding Method (MBM) for group kNN queries [24].

MBM generalizes best-first kNN to a *group* of query locations: a tree node
is ranked by ``F(mindist(MBR, l_1), ..., mindist(MBR, l_n))``.  Because F
is monotonically increasing and ``mindist`` lower-bounds every real
distance from any point inside the MBR, this value lower-bounds the
aggregate cost of every POI under the node, so best-first order remains
exact.  This is the plaintext kGNN black box run per candidate query by the
LSP (Algorithm 2 line 3).

For ``sum`` and two or more users that bound is loose around a spread
group: every user's mindist can be small while no point is near all of
them.  An aggregate may carry a tighter exact bound (``rect_bound``);
``sum`` carries the supporting line of its convex cost at the MBR's
centre (:func:`~repro.geometry.distance.sum_support_arrays`).  A node's
key is then the larger of the two bounds, still at most the cost of every
POI under it.  MAX, MIN, custom aggregates and single users keep F of the
mindists.

Like :mod:`repro.gnn.knn` the search is index-agnostic: it walks whatever
hierarchy :meth:`~repro.index.base.SpatialIndex.traversal_roots` exposes,
and falls back to scoring every entry exhaustively for flat indexes —
identical answers, different work, both metered through the optional
:class:`~repro.index.base.IndexCounters`.

Node expansion is computed in numpy.  Each expanded node's coordinates or
child MBRs come from :func:`~repro.index.base.node_arrays`, cached on the
node.  One ``(entries, n)`` distance matrix per node gives every leaf score
or child bound, and heap keys are pushed straight from it.  The numpy
distance and the built-in aggregates' ``combine_rows`` equal their scalar
forms bit for bit, so every leaf score is the scalar score; a custom
aggregate applies its own ``combine`` to each row.  An entry is pushed
only while its key is at most ``kth``, the k-th smallest point score pushed
so far: anything above it could never be popped before the k-th result.
Points pop in ``(score, location)`` order whatever the node keys, as long
as each lower-bounds its POIs, so tighter keys change only how many nodes
are expanded (see DESIGN.md, "kGNN hot path").
"""

from __future__ import annotations

import heapq
import math
from itertools import count
from typing import Any, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.distance import mindist_arrays, stacked_norm
from repro.geometry.point import Point
from repro.gnn.aggregate import MAX, MIN, SUM, Aggregate
from repro.index.base import IndexCounters, SpatialIndex, mbr_array, node_arrays

#: Aggregates whose ``combine_rows`` equals ``combine`` bit for bit.
_VECTOR_AGGREGATES = (SUM, MAX, MIN)


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


def _row_scorer(aggregate: Aggregate):
    """F over each row of an ``(entries, n)`` distance matrix."""
    if aggregate in _VECTOR_AGGREGATES:
        return aggregate.combine_rows
    return lambda dists: np.array([aggregate.combine(row) for row in dists.tolist()])


def rect_keyer(aggregate: Aggregate, n: int):
    """The walk's key function for rectangles, for a group of ``n`` users.

    Maps stacked users ``q`` ``(2, 1, n)`` and rectangle corners ``lo``,
    ``hi`` ``(2, m, 1)`` to m heap keys, as floats: F of the users'
    mindists [24], raised to the aggregate's ``rect_bound`` where it has one
    and n >= 2 (one user's mindist is already its exact minimum over the
    rectangle).  ``np.fmax`` keeps F of the mindists where that bound is
    NaN.  Both lower-bound the cost of every point inside.
    """
    score = _row_scorer(aggregate)
    bound = aggregate.rect_bound if n > 1 else None
    if bound is None:
        return lambda q, lo, hi: score(mindist_arrays(q, lo, hi)).tolist()
    return lambda q, lo, hi: np.fmax(
        score(mindist_arrays(q, lo, hi)), bound(q, lo, hi)
    ).tolist()


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
    version = tree.version
    score = _row_scorer(aggregate)
    rect_keys = rect_keyer(aggregate, len(locations))
    # Query locations stacked as (x, y) rows; they broadcast against the
    # (2, entries, 1) node arrays into (2, entries, n) differences.
    q = np.array([[[loc.x for loc in locations]], [[loc.y for loc in locations]]])
    seq = count()
    heap: list[tuple[float, tuple[float, float], int, bool, Any]] = []
    rects = mbr_array(roots)
    root_bounds = rect_keys(q, rects[:2], rects[2:])
    for root, bound in zip(roots, root_bounds, strict=True):
        if root.mbr is not None:
            heapq.heappush(heap, (bound, (0.0, 0.0), next(seq), False, root))
    # The k smallest scores pushed so far, negated (a max-heap); an entry
    # scoring above kth sits behind k pushed points and is never popped.
    best: list[float] = []
    kth = math.inf
    result: list[tuple[Point, Any, float]] = []
    while heap and len(result) < k:
        key, _, _, is_point, payload = heapq.heappop(heap)
        if is_point:
            p, item = payload
            result.append((p, item, key))
            continue
        node = payload
        if counters is not None:
            counters.nodes_visited += 1
        arrays = node_arrays(node, version)
        if node.is_leaf:
            if counters is not None:
                counters.candidates_scored += len(node.points)
            costs = score(stacked_norm(arrays - q)).tolist()
            for p, item, cost in zip(node.points, node.items, costs, strict=True):
                if cost > kth:
                    continue
                heapq.heappush(heap, (cost, (p.x, p.y), next(seq), True, (p, item)))
                if len(best) < k:
                    heapq.heappush(best, -cost)
                else:
                    heapq.heapreplace(best, -cost)
                if len(best) == k:
                    kth = -best[0]
        else:
            bounds = rect_keys(q, arrays[:2], arrays[2:])
            for child, bound in zip(node.children, bounds, strict=True):
                mbr = child.mbr
                if bound > kth or mbr is None:
                    continue
                heapq.heappush(heap, (bound, (mbr.xmin, mbr.ymin), next(seq), False, child))
    return result
