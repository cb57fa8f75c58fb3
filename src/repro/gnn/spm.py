"""Single Point Method (SPM) for group kNN queries [24].

SPM collapses the query group into one representative point q (the
centroid) and runs a *single* incremental NN stream from q, pruning with a
triangle-inequality lower bound: every unseen POI p has ``dis(p, q)`` at
least the stream's frontier distance, and for the built-in aggregates

- sum:  F(p, Q) >= n * dis(p, q) - sum_i dis(q, l_i)
- max:  F(p, Q) >= dis(p, q) - min_i dis(q, l_i)
- min:  F(p, Q) >= dis(p, q) - max_i dis(q, l_i)

all monotone in ``dis(p, q)`` — so once the bound exceeds the current k-th
best aggregate cost, the exact top-k is complete.  SPM is cheap when the
group is tight around its centroid and degrades for spread groups; the
kGNN-algorithm ablation benchmark quantifies exactly that trade against
MBM and MQM.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.errors import ConfigurationError, positive_int
from repro.geometry.point import Point
from repro.gnn.aggregate import Aggregate
from repro.gnn.knn import incremental_nearest
from repro.index.base import IndexCounters, SpatialIndex

#: Per-aggregate lower bound factory: (n, dists q->users) -> bound(dist_pq).
_BOUNDS: dict[str, Callable[[int, list[float]], Callable[[float], float]]] = {
    "sum": lambda n, dq: (lambda d: n * d - sum(dq)),
    "max": lambda n, dq: (lambda d: d - min(dq)),
    "min": lambda n, dq: (lambda d: d - max(dq)),
}


def centroid(locations: Sequence[Point]) -> Point:
    """The arithmetic mean of the query locations."""
    n = len(locations)
    return Point(
        sum(p.x for p in locations) / n,
        sum(p.y for p in locations) / n,
    )


def spm_kgnn(
    tree: SpatialIndex,
    locations: Sequence[Point],
    k: int,
    aggregate: Aggregate,
    counters: IndexCounters | None = None,
) -> list[tuple[Point, Any, float]]:
    """Exact top-``k`` group nearest neighbors via the single-point method.

    Supports the built-in sum/max/min aggregates (each needs its own
    triangle-inequality bound); same result contract as
    :func:`~repro.gnn.mbm.mbm_kgnn`.
    """
    k = positive_int(k, "k")
    if not locations:
        raise ConfigurationError("kGNN query needs at least one location")
    bound_factory = _BOUNDS.get(aggregate.name)
    if bound_factory is None:
        raise ConfigurationError(
            f"SPM has no distance bound for aggregate {aggregate.name!r}; "
            f"use MBM or MQM for custom aggregates"
        )
    q = centroid(locations)
    dq = [q.distance_to(l) for l in locations]
    bound = bound_factory(len(locations), dq)

    best: list[tuple[float, Point, Any]] = []  # sorted ascending by (score, point)
    for dist_pq, p, item in incremental_nearest(tree, q, counters):
        if len(best) >= k and bound(dist_pq) > best[k - 1][0]:
            break
        score = aggregate(p.distance_to(l) for l in locations)
        best.append((score, p, item))
        best.sort(key=lambda t: (t[0], t[1]))
        del best[k:]
    return [(p, item, score) for score, p, item in best]
