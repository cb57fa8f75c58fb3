"""Answer sanitation under road-network distance.

The paper evaluates the inequality attack (Section 5) in Euclidean space,
but its construction only needs two ingredients: uniform samples of the
location space and the ability to evaluate F(p, C) with the target user
swept over the samples.  This module supplies both for the road metric,
extending Privacy IV to road-network deployments:

- sample locations are snapped to network nodes through a precomputed
  snap grid (a g x g lookup of each cell's nearest node — one-time cost,
  O(1) per sample afterwards; the quantization error is bounded by the
  cell diagonal and is far below typical network edge lengths),
- per-POI distance columns come from the network's cached single-source
  Dijkstra tables, gathered with one vectorized index per POI.

The colluders attack with the same metric the query used, so the victim's
feasible region is the set of *network positions* consistent with the
answer ranking; theta remains a fraction of the (uniformly sampled) space.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.sanitize import SanitationOutcome
from repro.datasets.poi import POI
from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.gnn.aggregate import Aggregate
from repro.roadnet.network import RoadNetwork
from repro.stats.hypothesis import SanitationTestPlan


class RoadNetworkSanitizer:
    """Longest-safe-prefix sanitation with road-network distances."""

    def __init__(
        self,
        network: RoadNetwork,
        aggregate: Aggregate,
        plan: SanitationTestPlan,
        rng: np.random.Generator,
        snap_grid: int = 96,
    ) -> None:
        if snap_grid < 2:
            raise ConfigurationError("snap grid needs at least 2 cells per side")
        self.network = network
        self.aggregate = aggregate
        self.plan = plan
        self.rng = rng
        self._nodes = list(network.graph.nodes)
        self._node_index = {node: i for i, node in enumerate(self._nodes)}
        self._snap_grid = snap_grid
        self._snap_table = self._build_snap_table(snap_grid)

    def _build_snap_table(self, g: int) -> np.ndarray:
        """Nearest-node index for every cell center of a g x g grid."""
        bounds = self.network.space.bounds
        table = np.empty(g * g, dtype=np.int64)
        for row in range(g):
            cy = bounds.ymin + (row + 0.5) * bounds.height / g
            for col in range(g):
                cx = bounds.xmin + (col + 0.5) * bounds.width / g
                node = self.network.snap(Point(cx, cy))
                table[row * g + col] = self._node_index[node]
        return table

    def _snap_samples(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Map sample coordinates to node indices via the snap grid."""
        bounds = self.network.space.bounds
        g = self._snap_grid
        cols = np.minimum(((xs - bounds.xmin) / bounds.width * g).astype(np.int64), g - 1)
        rows = np.minimum(((ys - bounds.ymin) / bounds.height * g).astype(np.int64), g - 1)
        return self._snap_table[rows * g + cols]

    def _poi_distance_table(self, poi: POI) -> np.ndarray:
        """Road distances from one POI to every node, as an indexable array."""
        source = self.network.snap(poi.location)
        table = self.network.distances_from(source)
        return np.array([table[node] for node in self._nodes])

    def sanitize(
        self,
        answers: Sequence[Sequence[POI]],
        candidates: Sequence[Sequence[Point]],
    ) -> list[SanitationOutcome]:
        """Per candidate query, the longest prefix of its answer safe
        against every colluding majority (road metric).

        The batch form of :meth:`AnswerSanitizer.sanitize
        <repro.core.sanitize.AnswerSanitizer.sanitize>`, on one core: the
        candidates are tested one after another, in order.
        """
        if len(answers) != len(candidates):
            raise ConfigurationError(
                f"{len(answers)} answers for {len(candidates)} candidate queries"
            )
        return [
            self._sanitize_one(pois, candidate)
            for pois, candidate in zip(answers, candidates, strict=True)
        ]

    def _sanitize_one(
        self, pois: Sequence[POI], candidate: Sequence[Point]
    ) -> SanitationOutcome:
        """One candidate's test.

        Mirrors the incremental Euclidean sanitizer: grow the prefix, test
        every target per length, stop at the first unsafe length.
        """
        k = len(pois)
        n = len(candidate)
        if n < 2 or k <= 1:
            return SanitationOutcome(tuple(pois), tuple([k] * max(n, 1)))
        xs, ys = self.network.space.sample_arrays(self.plan.n_samples, self.rng)
        sample_nodes = self._snap_samples(xs, ys)

        poi_tables: list[np.ndarray | None] = [None] * k
        value_columns: list[list[np.ndarray | None]] = [[None] * k for _ in range(n)]
        knowns = [
            [loc for i, loc in enumerate(candidate) if i != target]
            for target in range(n)
        ]

        def poi_table(j: int) -> np.ndarray:
            table = poi_tables[j]
            if table is None:
                table = self._poi_distance_table(pois[j])
                poi_tables[j] = table
            return table

        def value_column(target: int, j: int) -> np.ndarray:
            column = value_columns[target][j]
            if column is None:
                dists = poi_table(j)[sample_nodes]
                agg = self.aggregate
                if agg.decomposable:
                    partial = agg.partial(  # type: ignore[misc]
                        self.network.distance(loc, pois[j].location)
                        for loc in knowns[target]
                    )
                    column = agg.merge(dists, np.full(1, partial))  # type: ignore[misc]
                else:
                    rows = np.empty((len(dists), len(knowns[target]) + 1))
                    rows[:, 0] = dists
                    for idx, loc in enumerate(knowns[target]):
                        rows[:, idx + 1] = self.network.distance(
                            loc, pois[j].location
                        )
                    column = agg.combine_rows(rows)
                value_columns[target][j] = column
            return column

        cumulative = [np.ones(len(xs), dtype=bool) for _ in range(n)]
        alive = [True] * n
        safe_lengths = [1] * n
        prefix_len = 1
        for t in range(2, k + 1):
            all_safe = True
            for target in range(n):
                if not alive[target]:
                    continue
                ineq = value_column(target, t - 2) <= value_column(target, t - 1)
                cumulative[target] &= ineq
                if self.plan.is_safe(int(cumulative[target].sum())):
                    safe_lengths[target] = t
                else:
                    alive[target] = False
                    all_safe = False
            if not all_safe:
                break
            prefix_len = t
        return SanitationOutcome(tuple(pois[:prefix_len]), tuple(safe_lengths))
