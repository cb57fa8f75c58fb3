"""Retrieval quality of kGNN answers.

Scores a baseline's answer against the exact kGNN answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.datasets.poi import POI
from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.gnn.aggregate import Aggregate


def answer_precision(returned_ids: Sequence[int], exact_ids: Sequence[int]) -> float:
    """Fraction of returned POIs that belong to the exact top-k."""
    if not returned_ids:
        raise ConfigurationError("cannot score an empty answer")
    exact = set(exact_ids)
    return sum(1 for pid in returned_ids if pid in exact) / len(returned_ids)


def answer_recall(returned_ids: Sequence[int], exact_ids: Sequence[int]) -> float:
    """Fraction of the exact top-k that was returned."""
    if not exact_ids:
        raise ConfigurationError("the exact answer must be non-empty")
    returned = set(returned_ids)
    return sum(1 for pid in exact_ids if pid in returned) / len(exact_ids)


def cost_ratio(
    returned: Sequence[POI],
    exact: Sequence[POI],
    locations: Sequence[Point],
    aggregate: Aggregate,
) -> float:
    """Mean aggregate cost of the returned POIs over the exact optimum's.

    1.0 means the returned answer is as good as exact; the excess over 1.0
    is the utility the users lose to the approximation.  Compared over the
    shorter of the two lists so sanitation-truncated answers stay fair.
    """
    if not returned or not exact:
        raise ConfigurationError("answers must be non-empty")
    depth = min(len(returned), len(exact))

    def mean_cost(pois: Sequence[POI]) -> float:
        costs = [
            aggregate(loc.distance_to(p.location) for loc in locations)
            for p in pois[:depth]
        ]
        return sum(costs) / depth

    optimum = mean_cost(exact)
    if optimum == 0.0:
        return 1.0
    return mean_cost(returned) / optimum


@dataclass(frozen=True, slots=True)
class AnswerQuality:
    """Precision / recall / cost ratio of one answer against the exact top-k."""

    precision: float
    recall: float
    cost_ratio: float

    @property
    def exact(self) -> bool:
        """Whether the answer is indistinguishable from the exact optimum."""
        return self.precision == 1.0 and self.cost_ratio <= 1.0 + 1e-12


def evaluate_answer(
    returned: Sequence[POI],
    exact: Sequence[POI],
    locations: Sequence[Point],
    aggregate: Aggregate,
) -> AnswerQuality:
    """Bundle all three metrics for one (returned, exact) answer pair."""
    return AnswerQuality(
        precision=answer_precision(
            [p.poi_id for p in returned], [p.poi_id for p in exact]
        ),
        recall=answer_recall(
            [p.poi_id for p in returned], [p.poi_id for p in exact]
        ),
        cost_ratio=cost_ratio(returned, exact, locations, aggregate),
    )
