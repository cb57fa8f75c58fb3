"""Deterministic scatter–gather answer merge, with typed degradation.

**Merge theorem.**  Let the database be partitioned into disjoint shards
and let each responding shard return its *local* exact top-k (ascending
aggregate cost, ties by location — the
:class:`~repro.gnn.engine.GNNQueryEngine` contract).  Because every
global top-k POI is, within its own shard, beaten only by POIs that beat
it globally, the global top-k over the responding shards' POIs is a
subset of the union of the local top-k lists.  Re-scoring that union with
the *same* float expression the engines use —
``aggregate(p.distance_to(q) for q in locations)``, in the group's user
order — and sorting by ``(cost, location, poi_id)`` therefore reproduces
the single-LSP answer **exactly** (bit-identical floats, identical
tie-breaks) whenever all shards respond.  When shards are lost, the same
merge over the survivors is the exact top-k *of the covered sub-database*
— never a silently wrong full answer — and is returned as a typed
:class:`PartialAnswer` carrying the coverage fraction and the a-priori
quality estimate of :func:`repro.metrics.quality.estimate_partial_quality`.

The merge requires unsanitized per-shard answers (``sanitize=False``,
the paper's PPGNN-NAS mode): sanitation truncates local lists below k,
which would break the subset property.  :class:`~repro.cluster.scatter
.ClusterRunner` enforces this at construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.datasets.poi import POI
from repro.errors import ConfigurationError, positive_int
from repro.geometry.point import Point
from repro.gnn.aggregate import Aggregate
from repro.metrics.quality import PartialAnswerQuality


@dataclass(frozen=True, slots=True)
class ShardAnswer:
    """One shard's decoded sub-query answer plus its serving provenance."""

    shard_id: int
    replica: int
    answer_ids: tuple[int, ...]
    comm_bytes: int
    simulated_seconds: float
    failovers: int = 0
    hedged: bool = False
    hedge_won: bool = False


@dataclass(frozen=True, slots=True)
class PartialAnswer:
    """A degraded-but-honest answer when shards were irrecoverably lost.

    ``answer_ids`` is the exact top-k of the covered sub-database —
    flagged, typed, and quality-estimated, never passed off as the full
    answer.
    """

    answer_ids: tuple[int, ...]
    covered_shards: tuple[int, ...]
    lost_shards: tuple[int, ...]
    coverage: float
    quality: PartialAnswerQuality


def merge_answers(
    answers: Sequence[ShardAnswer],
    locations: Sequence[Point],
    aggregate: Aggregate,
    k: int,
    poi_map: Mapping[int, POI],
) -> tuple[int, ...]:
    """Merge per-shard local top-k lists into the global top-k.

    Pure and deterministic: candidate ids resolve against the
    authoritative ``poi_map`` and are re-scored with the engines' exact
    float expression, so the result matches a single-LSP query over the
    union of the responding shards' POIs bit for bit.
    """
    k = positive_int(k, "k")
    candidates: dict[int, POI] = {}
    for answer in answers:
        for poi_id in answer.answer_ids:
            poi = poi_map.get(poi_id)
            if poi is None:
                raise ConfigurationError(
                    f"shard {answer.shard_id} answered unknown poi_id {poi_id}"
                )
            candidates[poi_id] = poi
    scored = sorted(
        (
            aggregate(p.location.distance_to(q) for q in locations),
            (p.location.x, p.location.y),
            p.poi_id,
        )
        for p in candidates.values()
    )
    return tuple(poi_id for _, _, poi_id in scored[:k])
