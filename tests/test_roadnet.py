"""Tests for the road-network substrate and its protocol integration."""

import networkx as nx
import numpy as np
import pytest

from repro.core.config import PPGNNConfig
from repro.core.group import run_ppgnn
from repro.core.lsp import LSPServer
from repro.core.single import run_single_user
from repro.datasets.synthetic import uniform_pois
from repro.errors import ConfigurationError, ProtocolError
from repro.geometry.point import Point
from repro.geometry.space import LocationSpace
from repro.gnn.aggregate import MAX, SUM
from repro.roadnet import RoadNetwork, RoadNetworkEngine


@pytest.fixture(scope="module")
def network():
    return RoadNetwork.grid(nodes_per_side=10, seed=3)


@pytest.fixture(scope="module")
def road_engine(network):
    return RoadNetworkEngine(uniform_pois(300, seed=8), network)


class TestRoadNetwork:
    def test_grid_shape(self, network):
        assert network.graph.number_of_nodes() == 100
        assert nx.is_connected(network.graph)

    def test_grid_validation(self):
        with pytest.raises(ConfigurationError):
            RoadNetwork.grid(nodes_per_side=1)
        with pytest.raises(ConfigurationError):
            RoadNetwork.grid(drop_fraction=1.0)

    def test_disconnected_graph_rejected(self):
        g = nx.Graph()
        g.add_node(0, point=Point(0, 0))
        g.add_node(1, point=Point(1, 1))
        with pytest.raises(ConfigurationError):
            RoadNetwork(g, LocationSpace.unit_square())

    def test_node_without_point_rejected(self):
        g = nx.Graph()
        g.add_node(0)
        with pytest.raises(ConfigurationError):
            RoadNetwork(g, LocationSpace.unit_square())

    def test_snap_returns_nearest_node(self, network):
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = network.space.sample_point(rng)
            snapped = network.snap(p)
            best = min(
                network.graph.nodes,
                key=lambda n: network.node_point(n).distance_to(p),
            )
            assert network.node_point(snapped).distance_to(p) == pytest.approx(
                network.node_point(best).distance_to(p)
            )

    def test_distance_symmetric_and_metric(self, network):
        rng = np.random.default_rng(5)
        pts = [network.space.sample_point(rng) for _ in range(4)]
        for a in pts:
            assert network.distance(a, a) == 0.0
            for b in pts:
                assert network.distance(a, b) == pytest.approx(network.distance(b, a))

    def test_road_distance_at_least_euclidean_between_nodes(self, network):
        """Shortest path over straight edges cannot beat the straight line."""
        nodes = list(network.graph.nodes)[:10]
        for a in nodes:
            table = network.distances_from(a)
            for b in nodes:
                euclid = network.node_point(a).distance_to(network.node_point(b))
                assert table[b] >= euclid - 1e-9

    def test_dijkstra_cache(self, network):
        network.clear_cache()
        first = network.distances_from(0)
        assert network.distances_from(0) is first
        network.clear_cache()
        assert network.distances_from(0) is not first

    def test_dropped_edges_lengthen_detours(self):
        dense = RoadNetwork.grid(nodes_per_side=8, drop_fraction=0.0, seed=1)
        sparse = RoadNetwork.grid(nodes_per_side=8, drop_fraction=0.3, seed=1)
        total_dense = sum(dense.distances_from(0).values())
        total_sparse = sum(sparse.distances_from(0).values())
        assert total_sparse > total_dense


class TestRoadNetworkEngine:
    def test_query_matches_manual_ranking(self, road_engine, network):
        locations = [Point(0.2, 0.3), Point(0.7, 0.8)]
        got = [p.poi_id for p in road_engine.query(5, locations)]
        scored = sorted(
            (
                (
                    SUM(network.distance(loc, poi.location) for loc in locations),
                    poi.location,
                    poi.poi_id,
                )
                for poi in (road_engine.poi_by_id(i) for i in road_engine._by_id)
            ),
        )
        assert got == [pid for _, _, pid in scored[:5]]

    def test_differs_from_euclidean_sometimes(self, network):
        """The road metric must change at least one answer vs Euclidean."""
        from repro.gnn.engine import GNNQueryEngine

        pois = uniform_pois(300, seed=8)
        road = RoadNetworkEngine(pois, network)
        euclid = GNNQueryEngine(pois)
        rng = np.random.default_rng(6)
        diffs = 0
        for _ in range(10):
            locs = [network.space.sample_point(rng) for _ in range(3)]
            if [p.poi_id for p in road.query(8, locs)] != [
                p.poi_id for p in euclid.query(8, locs)
            ]:
                diffs += 1
        assert diffs > 0

    def test_max_aggregate(self, network):
        engine = RoadNetworkEngine(uniform_pois(100, seed=9), network, aggregate=MAX)
        answer = engine.query(3, [Point(0.1, 0.1), Point(0.9, 0.9)])
        assert len(answer) == 3

    def test_dynamic_updates(self, road_engine, network):
        from repro.datasets.poi import POI

        poi = POI(888_888, Point(0.5, 0.5), "roadside")
        road_engine.insert(poi)
        assert road_engine.poi_by_id(888_888) is poi
        assert road_engine.delete(poi)
        assert not road_engine.delete(poi)

    def test_validation(self, network):
        with pytest.raises(ConfigurationError):
            RoadNetworkEngine([], network)
        engine = RoadNetworkEngine(uniform_pois(10, seed=1), network)
        with pytest.raises(ConfigurationError):
            engine.query(0, [Point(0.5, 0.5)])
        with pytest.raises(ConfigurationError):
            engine.query(3, [])


class TestProtocolIntegration:
    def test_ppgnn_nas_over_road_network(self, road_engine):
        """The black-box swap: the full group protocol over road distance."""
        lsp = LSPServer(engine=road_engine, seed=2)
        cfg = PPGNNConfig(
            d=4, delta=12, k=4, keysize=128, sanitize=False, key_seed=3
        )
        group = [Point(0.2, 0.2), Point(0.8, 0.3), Point(0.5, 0.9)]
        result = run_ppgnn(lsp, group, cfg, seed=4)
        expected = [p.poi_id for p in road_engine.query(4, group)]
        assert list(result.answer_ids) == expected

    def test_single_user_over_road_network(self, road_engine):
        lsp = LSPServer(engine=road_engine, seed=2)
        cfg = PPGNNConfig(d=4, delta=4, k=3, keysize=128, sanitize=False, key_seed=3)
        user = Point(0.33, 0.66)
        result = run_single_user(lsp, user, cfg, seed=5)
        expected = [p.poi_id for p in road_engine.query(3, [user])]
        assert list(result.answer_ids) == expected

    def test_sanitation_supported_for_road_metric(self, road_engine):
        """Full PPGNN (with Privacy IV) runs over the road metric."""
        lsp = LSPServer(engine=road_engine, sanitation_samples=800, seed=2)
        cfg = PPGNNConfig(d=4, delta=12, k=6, keysize=128, key_seed=3)
        group = [Point(0.1, 0.1), Point(0.9, 0.2), Point(0.5, 0.95)]
        result = run_ppgnn(lsp, group, cfg, seed=6)
        expected = [p.poi_id for p in road_engine.query(6, group)]
        assert 1 <= len(result.answers) <= 6
        assert list(result.answer_ids) == expected[: len(result.answers)]

    def test_sanitation_rejected_for_unknown_engines(self, road_engine):
        class OpaqueEngine:
            aggregate = road_engine.aggregate

            def query(self, k, locations):
                return road_engine.query(k, locations)

            def poi_by_id(self, poi_id):
                return road_engine.poi_by_id(poi_id)

        lsp = LSPServer(engine=OpaqueEngine(), seed=2)
        cfg = PPGNNConfig(d=4, delta=12, k=4, keysize=128, key_seed=3)
        group = [Point(0.2, 0.2), Point(0.8, 0.3)]
        with pytest.raises(ProtocolError):
            run_ppgnn(lsp, group, cfg, seed=6)

    def test_engine_and_pois_mutually_exclusive(self, road_engine):
        with pytest.raises(ProtocolError):
            LSPServer(pois=uniform_pois(5, seed=1), engine=road_engine)

    def test_empty_pois_rejected(self):
        with pytest.raises(ProtocolError):
            LSPServer(pois=[])
