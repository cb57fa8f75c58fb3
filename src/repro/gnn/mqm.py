"""Multiple Query Method (MQM) for group kNN queries [24].

The threshold algorithm over n incremental NN streams, one per query
location: streams advance round-robin; every newly surfaced POI is scored
exactly (random access — n distance computations); the frontier distances
``t_i`` of the streams bound every unseen POI from below via monotonicity,

    F(p_unseen, Q) >= F(t_1, ..., t_n),

so the search stops once the k-th best exact score is at most that
threshold.  MQM works for *any* monotone aggregate (unlike SPM) and shines
when the per-user neighborhoods barely overlap; the kGNN ablation bench
compares it against MBM and SPM.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import ConfigurationError, positive_int
from repro.geometry.point import Point
from repro.gnn.aggregate import Aggregate
from repro.gnn.knn import incremental_nearest
from repro.index.base import IndexCounters, SpatialIndex


def mqm_kgnn(
    tree: SpatialIndex,
    locations: Sequence[Point],
    k: int,
    aggregate: Aggregate,
    counters: IndexCounters | None = None,
) -> list[tuple[Point, Any, float]]:
    """Exact top-``k`` group nearest neighbors via the threshold algorithm.

    Same result contract as :func:`~repro.gnn.mbm.mbm_kgnn`.
    """
    k = positive_int(k, "k")
    if not locations:
        raise ConfigurationError("kGNN query needs at least one location")
    streams = [incremental_nearest(tree, l, counters) for l in locations]
    frontiers = [0.0] * len(locations)
    exhausted = [False] * len(locations)
    # Identical (location, item) entries are distinct entries of the index,
    # and every stream yields each copy once: the j-th copy a stream yields
    # is new exactly when fewer than j copies have been scored.  Per entry:
    # [copies yielded by stream 0, ..., by stream n-1, copies scored].
    copies: dict[tuple[float, float, int], list[int]] = {}
    best: list[tuple[float, Point, Any]] = []

    while not all(exhausted):
        for i, stream in enumerate(streams):
            if exhausted[i]:
                continue
            step = next(stream, None)
            if step is None:
                exhausted[i] = True
                frontiers[i] = float("inf")
                continue
            dist, p, item = step
            frontiers[i] = dist
            entry = (p.x, p.y, id(item))
            seen = copies.get(entry)
            if seen is None:
                seen = copies[entry] = [0] * (len(locations) + 1)
            seen[i] += 1
            if seen[i] > seen[-1]:
                seen[-1] += 1
                score = aggregate(p.distance_to(l) for l in locations)
                best.append((score, p, item))
                best.sort(key=lambda t: (t[0], t[1]))
                del best[k:]
        threshold = aggregate(frontiers)
        if len(best) >= k and best[k - 1][0] <= threshold:
            break
    return [(p, item, score) for score, p, item in best]
