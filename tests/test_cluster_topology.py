"""Cluster building blocks: partitioning, routing, fault plans, merging."""

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterTopology,
    HashRing,
    ReplicaFault,
    ShardFaultPlan,
    ShardAnswer,
    merge_answers,
)
from repro.cluster.faults import ShardFaultState
from repro.core.lsp import LSPServer
from repro.datasets.synthetic import clustered_pois
from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.geometry.space import LocationSpace
from repro.gnn.aggregate import get_aggregate
from repro.metrics.quality import estimate_partial_quality
from repro.partition.spatial import partition_pois


@pytest.fixture(scope="module")
def space():
    return LocationSpace.unit_square()


@pytest.fixture(scope="module")
def pois(space):
    return clustered_pois(300, space, seed=11)


class TestPartition:
    @pytest.mark.parametrize("strategy", ["spatial", "round-robin"])
    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    def test_disjoint_and_exhaustive(self, pois, strategy, shards):
        cells = partition_pois(pois, shards, strategy)
        assert len(cells) == shards
        ids = [p.poi_id for cell in cells for p in cell]
        assert sorted(ids) == sorted(p.poi_id for p in pois)
        assert len(ids) == len(set(ids))
        assert all(cells)  # no empty shard

    def test_spatial_is_balanced(self, pois):
        cells = partition_pois(pois, 4, "spatial")
        counts = [len(c) for c in cells]
        assert max(counts) - min(counts) <= 1

    def test_deterministic_across_calls(self, pois):
        one = partition_pois(pois, 5, "spatial")
        two = partition_pois(list(reversed(pois)), 5, "spatial")
        assert one == two

    def test_rejects_bad_inputs(self, pois, space):
        with pytest.raises(ConfigurationError):
            partition_pois(pois, 0)
        with pytest.raises(ConfigurationError):
            partition_pois(pois[:2], 3)
        with pytest.raises(ConfigurationError):
            partition_pois(pois, 2, "random")
        with pytest.raises(ConfigurationError):
            partition_pois([pois[0], pois[0]], 2)


class TestHashRing:
    def test_preference_is_a_permutation(self):
        ring = HashRing(shards=4, replicas=3)
        for shard in range(4):
            for group in range(10):
                pref = ring.preference("tenant-0", group, shard)
                assert sorted(pref) == [0, 1, 2]

    def test_route_is_first_preference(self):
        ring = HashRing(shards=2, replicas=2)
        assert ring.route("t", 3, 1) == ring.preference("t", 3, 1)[0]

    def test_deterministic_across_instances(self):
        a = HashRing(shards=3, replicas=2, virtual_nodes=8)
        b = HashRing(shards=3, replicas=2, virtual_nodes=8)
        for shard in range(3):
            assert a.preference("x", 7, shard) == b.preference("x", 7, shard)

    def test_spreads_keys_across_replicas(self):
        ring = HashRing(shards=1, replicas=4, virtual_nodes=32)
        primaries = {ring.route("t", group, 0) for group in range(64)}
        assert len(primaries) > 1

    def test_rejects_unknown_shard(self):
        with pytest.raises(ConfigurationError):
            HashRing(2, 1).preference("t", 0, 2)


class TestShardFaultPlan:
    def test_kill_after_counts_served_subqueries(self):
        plan = ShardFaultPlan.killing({(0, 0): 2})
        state = ShardFaultState(plan=plan)
        assert state.available(0, 0, seq=0)
        state.record_served(0, 0)
        state.record_served(0, 0)
        assert not state.available(0, 0, seq=2)
        assert state.available(0, 1, seq=2)  # other replica untouched

    def test_flap_windows_recover(self):
        plan = ShardFaultPlan(
            replicas={(1, 0): ReplicaFault(down=((3, 5),))}
        )
        state = ShardFaultState(plan=plan)
        assert state.available(1, 0, seq=2)
        assert not state.available(1, 0, seq=3)
        assert not state.available(1, 0, seq=4)
        assert state.available(1, 0, seq=5)

    def test_slow_start_window(self):
        plan = ShardFaultPlan(
            replicas={(0, 1): ReplicaFault(slow_start=1, slow_factor=4.0)}
        )
        state = ShardFaultState(plan=plan)
        assert state.service_factor(0, 1) == 4.0
        state.record_served(0, 1)
        assert state.service_factor(0, 1) == 1.0

    def test_jitter_is_deterministic_and_bounded(self):
        plan = ShardFaultPlan(seed=9, jitter_seconds=0.5)
        a = plan.jitter(3, 1, 0)
        assert a == plan.jitter(3, 1, 0)
        assert 0.0 <= a < 0.5
        assert plan.jitter(3, 1, 0) != plan.jitter(4, 1, 0)

    def test_plan_pickles(self):
        import pickle

        plan = ShardFaultPlan.killing({(0, 0): 1}, seed=2)
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ReplicaFault(kill_after=-1)
        with pytest.raises(ConfigurationError):
            ReplicaFault(slow_factor=0.5)
        with pytest.raises(ConfigurationError):
            ReplicaFault(down=((4, 4),))
        with pytest.raises(ConfigurationError):
            ShardFaultPlan(replicas={(-1, 0): ReplicaFault()})


class TestTopologyAndMerge:
    def test_coverage_is_poi_weighted(self, pois):
        topo = ClusterTopology.build(pois, ClusterConfig(shards=3))
        lost = 0
        expected = (topo.total_pois - topo.poi_count(lost)) / topo.total_pois
        assert topo.coverage([lost]) == pytest.approx(expected)
        assert topo.coverage([]) == 1.0
        with pytest.raises(ConfigurationError):
            topo.coverage([99])

    @pytest.mark.parametrize("aggregate_name", ["sum", "max"])
    def test_merge_equals_plaintext_gnn(self, pois, space, aggregate_name):
        """Local exact top-k lists merge to the global exact top-k."""
        k = 4
        aggregate = get_aggregate(aggregate_name)
        locations = (Point(0.2, 0.3), Point(0.7, 0.6))
        cells = partition_pois(pois, 3, "spatial")
        answers = []
        for shard, cell in enumerate(cells):
            lsp = LSPServer(list(cell), space=space, aggregate_name=aggregate_name)
            local = lsp.engine.query(k, list(locations))
            answers.append(
                ShardAnswer(
                    shard_id=shard,
                    replica=0,
                    answer_ids=tuple(p.poi_id for p in local),
                    comm_bytes=0,
                    simulated_seconds=0.0,
                )
            )
        poi_map = {p.poi_id: p for p in pois}
        merged = merge_answers(answers, locations, aggregate, k, poi_map)
        single = LSPServer(list(pois), space=space, aggregate_name=aggregate_name)
        expected = tuple(p.poi_id for p in single.engine.query(k, list(locations)))
        assert merged == expected

    def test_merge_rejects_unknown_poi(self, pois):
        answers = [
            ShardAnswer(
                shard_id=0,
                replica=0,
                answer_ids=(10**9,),
                comm_bytes=0,
                simulated_seconds=0.0,
            )
        ]
        with pytest.raises(ConfigurationError):
            merge_answers(
                answers,
                (Point(0.5, 0.5),),
                get_aggregate("sum"),
                2,
                {p.poi_id: p for p in pois},
            )


class TestPartialQuality:
    def test_expected_recall_equals_coverage(self):
        q = estimate_partial_quality(covered_pois=75, total_pois=100, k=5)
        assert q.coverage == pytest.approx(0.75)
        assert q.expected_recall == pytest.approx(0.75)
        assert not q.complete

    def test_guaranteed_recall_pigeonhole(self):
        # Only 2 POIs are lost, so at least k - 2 of the top-5 survive.
        q = estimate_partial_quality(covered_pois=98, total_pois=100, k=5)
        assert q.guaranteed_recall == pytest.approx(3 / 5)
        # Losing more POIs than k guarantees nothing.
        q = estimate_partial_quality(covered_pois=50, total_pois=100, k=5)
        assert q.guaranteed_recall == 0.0

    def test_full_coverage_is_complete(self):
        q = estimate_partial_quality(covered_pois=10, total_pois=10, k=3)
        assert q.complete
        assert q.expected_recall == 1.0
        assert q.guaranteed_recall == 1.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            estimate_partial_quality(5, 0, 1)
        with pytest.raises(ConfigurationError):
            estimate_partial_quality(11, 10, 1)
        with pytest.raises(ConfigurationError):
            estimate_partial_quality(5, 10, 0)


class TestClusterConfigValidation:
    def test_defaults_are_valid(self):
        ClusterConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shards": 0},
            {"replicas": 0},
            {"quorum": 0.0},
            {"quorum": 1.5},
            {"partition": "zigzag"},
            {"virtual_nodes": 0},
            {"hedge_factor": 1.0},
            {"failover_backoff_seconds": -0.1},
            # Fault keys must name a shard and a replica the cluster has.
            {"faults": ShardFaultPlan.killing({(2, 0): 0})},
            {"faults": ShardFaultPlan.killing({(0, 1): 0})},
        ],
    )
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ConfigurationError):
            ClusterConfig(**kwargs)
