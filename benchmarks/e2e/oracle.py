"""Plaintext answer oracle for the end-to-end benchmark.

Every answer a workload returns must be a non-empty prefix of the exact
top-k of its *real* group query (sanitation may only shorten an answer,
never reorder or replace it).  The exact top-k comes from
``repro.gnn.bruteforce.brute_force_kgnn``; to keep the check cheap at
62,556 POIs, numpy first narrows each query to its ``4k`` best POIs under
the sum aggregate and the brute-force oracle ranks only those.  Oracle
time is spent after the timed loop, never inside a latency sample.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Sequence

import numpy as np

from repro.gnn.aggregate import get_aggregate
from repro.gnn.bruteforce import brute_force_kgnn

#: Candidates kept per answer slot by the numpy prefilter.
PREFILTER_FACTOR = 4


class AnswerOracle:
    """Exact group-kNN answers (sum aggregate) over one POI database."""

    def __init__(self, pois) -> None:
        self._pois = list(pois)
        self._xs = np.array([p.location.x for p in self._pois])
        self._ys = np.array([p.location.y for p in self._pois])
        self._sum = get_aggregate("sum")

    def exact_ids(self, locations: Sequence, k: int) -> tuple[int, ...]:
        """The exact top-``k`` POI ids for one group's real locations."""
        k = min(k, len(self._pois))
        cost = np.zeros(len(self._pois))
        for q in locations:
            cost += np.hypot(self._xs - q.x, self._ys - q.y)
        keep = min(len(self._pois), PREFILTER_FACTOR * k)
        shortlist = np.argpartition(cost, keep - 1)[:keep]
        entries = [
            (self._pois[i].location, self._pois[i]) for i in shortlist.tolist()
        ]
        ranked = brute_force_kgnn(entries, list(locations), k, self._sum)
        return tuple(poi.poi_id for _, poi, _ in ranked)

    def check(self, answer_ids: Sequence[int], locations: Sequence, k: int) -> str | None:
        """None when ``answer_ids`` is a non-empty exact prefix, else why not."""
        if not answer_ids:
            return "empty answer"
        exact = self.exact_ids(locations, k)
        if tuple(answer_ids) != exact[: len(answer_ids)]:
            return f"answer {tuple(answer_ids)} is not a prefix of exact {exact}"
        return None


def answers_digest(answers: Iterable[Sequence[int]]) -> str:
    """sha256 of the answer ids, one line per query, in query order."""
    digest = hashlib.sha256()
    for ids in answers:
        digest.update((",".join(map(str, ids)) + "\n").encode())
    return digest.hexdigest()
