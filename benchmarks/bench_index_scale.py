"""Index substrate crossover: exact candidate work per index kind.

Builds every index kind over clustered datasets of increasing size and
runs one seeded group-query workload through each, freezing the exact
per-workload candidate counters into the ``index-scale`` baseline.  The
counters are the crossover story in numbers: the hierarchical indexes
(rtree/grid) score a near-constant candidate set per query while brute
force scores the whole database.

All kinds must return identical answer ids for every query; that
equivalence is asserted here on every run, baseline or not.
"""

from __future__ import annotations

import pytest

from repro.datasets import stream_clustered
from repro.geometry.space import LocationSpace
from repro.gnn.engine import INDEX_KINDS, GNNQueryEngine

import numpy as np

SIZES = (2_000, 8_000, 32_000)
QUERIES = 12
K = 8
GROUP = 2
SEED = 20180326


def _workload(space: LocationSpace):
    rng = np.random.default_rng(SEED)
    return [space.sample_points(GROUP, rng) for _ in range(QUERIES)]


@pytest.fixture(scope="module")
def scale_results():
    space = LocationSpace.unit_square()
    queries = _workload(space)
    results: dict[int, dict[str, dict]] = {}
    for size in SIZES:
        pois = list(stream_clustered(size, space=space, seed=SEED))
        per_kind: dict[str, dict] = {}
        for kind in INDEX_KINDS:
            engine = GNNQueryEngine(pois, index=kind, space=space)
            answers = [
                tuple(p.poi_id for p in engine.query(K, group))
                for group in queries
            ]
            per_kind[kind] = {
                "answers": answers,
                "counters": engine.index_counters,
            }
        results[size] = per_kind
    return results


def test_exact_kinds_answer_identically(scale_results):
    for size, per_kind in scale_results.items():
        reference = per_kind["rtree"]["answers"]
        for kind in INDEX_KINDS:
            assert per_kind[kind]["answers"] == reference, (
                f"{kind} diverged from rtree at n={size}"
            )


def test_index_scale_baseline(scale_results, recorder, sentinel):
    metrics: dict[str, float] = {}
    for size, per_kind in scale_results.items():
        for kind in INDEX_KINDS:
            counters = per_kind[kind]["counters"]
            metrics[f"candidates.{kind}.n{size}"] = counters.candidates_scored
            metrics[f"nodes.{kind}.n{size}"] = counters.nodes_visited
    sentinel.gate(
        "index-scale",
        metrics,
        config={
            "sizes": list(SIZES),
            "queries": QUERIES,
            "k": K,
            "group": GROUP,
            "seed": SEED,
        },
    )
    recorder.record_json(
        "index-scale",
        {"sizes": list(SIZES), "metrics": metrics},
        config={"seed": SEED},
    )
    largest = SIZES[-1]
    brute = scale_results[largest]["bruteforce"]["counters"].candidates_scored
    rtree = scale_results[largest]["rtree"]["counters"].candidates_scored
    recorder.note(
        "index-scale",
        f"n={largest}: rtree scores {rtree} candidates vs {brute} brute-force "
        f"({rtree / brute:.1%})",
    )
