"""Exhaustive group-kNN: the oracle MBM is property-tested against."""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.errors import ConfigurationError, positive_int
from repro.geometry.point import Point
from repro.gnn.aggregate import Aggregate


def brute_force_kgnn(
    entries: Iterable[tuple[Point, Any]],
    locations: Sequence[Point],
    k: int,
    aggregate: Aggregate,
) -> list[tuple[Point, Any, float]]:
    """Score every entry and return the top ``k`` by aggregate cost.

    Same tie-breaking contract as :func:`~repro.gnn.mbm.mbm_kgnn` (score,
    then location), so results are comparable element-wise in tests.
    """
    k = positive_int(k, "k")
    if not locations:
        raise ConfigurationError("kGNN query needs at least one location")
    scored = [
        (aggregate(p.distance_to(q) for q in locations), p, item)
        for p, item in entries
    ]
    scored.sort(key=lambda t: (t[0], t[1]))
    return [(p, item, score) for score, p, item in scored[:k]]
