"""Tests for the SPM and MQM group-kNN algorithms against MBM/brute force."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import uniform_pois
from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.gnn.aggregate import MAX, MIN, SUM, Aggregate
from repro.gnn.bruteforce import brute_force_kgnn
from repro.gnn.knn import incremental_nearest
from repro.gnn.mqm import mqm_kgnn
from repro.gnn.spm import centroid, spm_kgnn
from repro.index.rtree import RTree

coord = st.floats(min_value=0, max_value=1, allow_nan=False)
query_points = st.lists(st.builds(Point, coord, coord), min_size=1, max_size=5)


@pytest.fixture(scope="module")
def tree_and_pois():
    pois = uniform_pois(400, seed=19)
    tree = RTree(max_entries=8)
    tree.bulk_load((p.location, p) for p in pois)
    return tree, pois


class TestIncrementalNearest:
    def test_yields_all_in_order(self, tree_and_pois):
        tree, pois = tree_and_pois
        q = Point(0.4, 0.6)
        stream = list(incremental_nearest(tree, q))
        assert len(stream) == len(pois)
        dists = [d for d, _, _ in stream]
        assert dists == sorted(dists)

    def test_prefix_matches_knn(self, tree_and_pois):
        from repro.gnn.knn import best_first_knn

        tree, _ = tree_and_pois
        q = Point(0.8, 0.1)
        stream = incremental_nearest(tree, q)
        prefix = [item.poi_id for _, _, item in (next(stream) for _ in range(12))]
        full = [item.poi_id for _, item in best_first_knn(tree, q, 12)]
        assert prefix == full

    def test_empty_tree(self):
        assert list(incremental_nearest(RTree(), Point(0, 0))) == []


class TestSPM:
    def test_centroid(self):
        assert centroid([Point(0, 0), Point(2, 4)]) == Point(1, 2)

    @pytest.mark.parametrize("aggregate", [SUM, MAX, MIN], ids=lambda a: a.name)
    def test_matches_bruteforce(self, tree_and_pois, aggregate):
        tree, pois = tree_and_pois
        rng = np.random.default_rng(23)
        for _ in range(6):
            n = int(rng.integers(1, 6))
            locations = [Point(*rng.uniform(0, 1, 2)) for _ in range(n)]
            got = spm_kgnn(tree, locations, 8, aggregate)
            want = brute_force_kgnn(
                ((p.location, p) for p in pois), locations, 8, aggregate
            )
            assert [g[1].poi_id for g in got] == [w[1].poi_id for w in want]

    def test_custom_aggregate_rejected(self, tree_and_pois):
        tree, _ = tree_and_pois
        opaque = Aggregate("spm-opaque", lambda ds: sum(ds), lambda m: m.sum(axis=1))
        with pytest.raises(ConfigurationError):
            spm_kgnn(tree, [Point(0.5, 0.5)], 3, opaque)

    def test_validation(self, tree_and_pois):
        tree, _ = tree_and_pois
        with pytest.raises(ConfigurationError):
            spm_kgnn(tree, [], 3, SUM)
        with pytest.raises(ConfigurationError):
            spm_kgnn(tree, [Point(0.5, 0.5)], 0, SUM)

    @settings(max_examples=20, deadline=None)
    @given(query_points)
    def test_property_sum(self, locations):
        pois = uniform_pois(80, seed=31)
        tree = RTree(max_entries=4)
        tree.bulk_load((p.location, p) for p in pois)
        got = spm_kgnn(tree, locations, 5, SUM)
        want = brute_force_kgnn(((p.location, p) for p in pois), locations, 5, SUM)
        assert [g[1].poi_id for g in got] == [w[1].poi_id for w in want]


class TestMQM:
    @pytest.mark.parametrize("aggregate", [SUM, MAX, MIN], ids=lambda a: a.name)
    def test_matches_bruteforce(self, tree_and_pois, aggregate):
        tree, pois = tree_and_pois
        rng = np.random.default_rng(29)
        for _ in range(6):
            n = int(rng.integers(1, 6))
            locations = [Point(*rng.uniform(0, 1, 2)) for _ in range(n)]
            got = mqm_kgnn(tree, locations, 8, aggregate)
            want = brute_force_kgnn(
                ((p.location, p) for p in pois), locations, 8, aggregate
            )
            assert [g[1].poi_id for g in got] == [w[1].poi_id for w in want]

    def test_custom_monotone_aggregate_supported(self, tree_and_pois):
        """Unlike SPM, MQM needs only monotonicity."""
        tree, pois = tree_and_pois

        def squares(ds):
            return float(sum(d * d for d in ds))

        opaque = Aggregate("mqm-squares", squares, lambda m: (m * m).sum(axis=1))
        locations = [Point(0.2, 0.2), Point(0.7, 0.6)]
        got = mqm_kgnn(tree, locations, 6, opaque)
        want = brute_force_kgnn(
            ((p.location, p) for p in pois), locations, 6, opaque
        )
        assert [g[1].poi_id for g in got] == [w[1].poi_id for w in want]

    def test_k_exceeds_database(self):
        pois = uniform_pois(5, seed=3)
        tree = RTree()
        tree.bulk_load((p.location, p) for p in pois)
        got = mqm_kgnn(tree, [Point(0.5, 0.5)], 50, SUM)
        assert len(got) == 5

    def test_validation(self, tree_and_pois):
        tree, _ = tree_and_pois
        with pytest.raises(ConfigurationError):
            mqm_kgnn(tree, [], 3, SUM)

    @settings(max_examples=20, deadline=None)
    @given(query_points)
    def test_property_max(self, locations):
        pois = uniform_pois(80, seed=37)
        tree = RTree(max_entries=4)
        tree.bulk_load((p.location, p) for p in pois)
        got = mqm_kgnn(tree, locations, 5, MAX)
        want = brute_force_kgnn(((p.location, p) for p in pois), locations, 5, MAX)
        assert [g[1].poi_id for g in got] == [w[1].poi_id for w in want]

