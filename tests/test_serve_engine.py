"""The serving engine: identity with direct sessions, determinism, validation."""

from dataclasses import fields, replace

import numpy as np
import pytest

from repro.core.config import PPGNNConfig
from repro.core.lsp import LSPServer
from repro.core.session import QuerySession
from repro.datasets.poi import POI
from repro.datasets.synthetic import uniform_pois
from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.geometry.space import LocationSpace
from repro.index.rtree import RTree
from repro.serve import (
    BucketRunner,
    LSPSpec,
    RunnerOptions,
    ServeConfig,
    ServeEngine,
    WorkloadSpec,
    generate_workload,
)

SAMPLES = 8  # small Monte-Carlo override keeps sanitation fast


@pytest.fixture(scope="module")
def space():
    return LocationSpace.unit_square()


@pytest.fixture(scope="module")
def pois(space):
    return uniform_pois(200, space, np.random.default_rng(7))


@pytest.fixture(scope="module")
def config():
    return PPGNNConfig(d=4, delta=8, k=3, keysize=128)


@pytest.fixture
def make_lsp(pois, space):
    def build():
        return LSPServer(pois, space=space, sanitation_samples=SAMPLES)

    return build


MIXED = WorkloadSpec(
    queries=16,
    rate_qps=10.0,
    protocol_mix={"ppgnn": 1.0, "ppgnn-opt": 1.0, "naive": 1.0},
    group_size_mix={2: 1.0, 3: 1.0},
    k_mix={3: 1.0},
    tenants=("a", "b"),
    groups=4,
    repeat_fraction=0.3,
    seed=5,
)


@pytest.fixture
def bulk_loads(monkeypatch):
    """Counts R-tree bulk loads from here on."""
    calls = []
    original = RTree.bulk_load

    def bulk_load(tree, items):
        calls.append(tree)
        return original(tree, items)

    monkeypatch.setattr(RTree, "bulk_load", bulk_load)
    return calls


class TestByteIdentity:
    @pytest.mark.parametrize("protocol", ["ppgnn", "ppgnn-opt", "naive"])
    def test_engine_equals_direct_session(self, protocol, make_lsp, config, space):
        """A one-query engine run is byte-identical to a bare QuerySession."""
        spec = WorkloadSpec(
            queries=1,
            protocol_mix={protocol: 1.0},
            group_size_mix={3: 1.0},
            k_mix={config.k: 1.0},
            groups=1,
            seed=9,
        )
        workload = generate_workload(spec, space)
        job = workload.jobs[0]
        engine = ServeEngine(
            make_lsp(),
            config,
            ServeConfig(workers=1, nonce_pool=False, knn_cache_size=None),
        )
        outcome = engine.run(workload).outcomes[job.job_id]

        lsp = make_lsp()
        lsp.reset_rng(job.seed)
        session = QuerySession(lsp=lsp, config=config, protocol=protocol, seed=job.seed)
        direct = session.query(workload.groups[0].locations, seed=job.seed)
        assert outcome.ok
        assert outcome.answer_ids == direct.answer_ids
        assert outcome.comm_bytes == direct.report.total_comm_bytes

    def test_pooled_cached_run_same_answers(self, make_lsp, config, space):
        """Nonce pools and the kNN cache are transparent to answers."""
        workload = generate_workload(MIXED, space)
        bare = ServeEngine(
            make_lsp(),
            config,
            ServeConfig(workers=2, nonce_pool=False, knn_cache_size=None),
        ).run(workload)
        shared = ServeEngine(
            make_lsp(),
            config,
            ServeConfig(workers=2, nonce_pool=True, knn_cache_size=64),
        ).run(workload)
        assert bare.answers_digest == shared.answers_digest
        assert shared.cache["hits"] > 0
        assert shared.pool["pooled"] > 0


class TestDeterminism:
    def test_two_runs_identical_reports(self, make_lsp, config, space):
        serve = ServeConfig(workers=3, policy="shortest-cost", knn_cache_size=64)
        one = ServeEngine(make_lsp(), config, serve).run(generate_workload(MIXED, space))
        two = ServeEngine(make_lsp(), config, serve).run(generate_workload(MIXED, space))
        assert one.to_dict() == two.to_dict()
        assert one.wall_seconds != 0.0  # real work actually happened

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("runs", [2, 3])
    def test_consecutive_runs_equal_fresh_engines(
        self, runs, workers, make_lsp, config, space, bulk_loads
    ):
        """One engine's runs share one replica index and report as fresh engines do."""
        serve = ServeConfig(workers=workers, knn_cache_size=64)
        workloads = [
            generate_workload(replace(MIXED, seed=seed), space)
            for seed in range(5, 5 + runs)
        ]
        engine = ServeEngine(make_lsp(), config, serve)
        del bulk_loads[:]  # the primary LSP's own index
        reports = [engine.run(workload).to_dict() for workload in workloads]
        assert len(bulk_loads) == 1
        for workload, report in zip(workloads, reports, strict=True):
            # The dict carries answers_digest, the cache and the pool counters.
            assert report == ServeEngine(make_lsp(), config, serve).run(workload).to_dict()

    def test_report_json_serializable(self, make_lsp, config, space):
        import json

        report = ServeEngine(make_lsp(), config, ServeConfig(workers=2)).run(
            generate_workload(MIXED, space)
        )
        json.dumps(report.to_dict(include_wall=True))


class TestReplicaIndex:
    """One index per engine, database version and kind, shared by the replicas."""

    def test_primary_mutation_rebuilds_the_replicas(
        self, pois, make_lsp, config, space, bulk_loads
    ):
        """An insert, then a delete, each make the next run rebuild its index."""
        serve = ServeConfig(workers=2, knn_cache_size=64)
        workloads = [
            generate_workload(replace(MIXED, seed=seed), space) for seed in (5, 6, 7)
        ]
        # One new POI on a member of every group: it ranks high in their answers.
        added = [
            POI(10_000 + group.group_id, group.locations[0])
            for group in workloads[1].groups
        ]
        lsp = make_lsp()
        engine = ServeEngine(lsp, config, serve)
        del bulk_loads[:]  # the primary LSP's own index
        engine.run(workloads[0])
        for poi in added:
            lsp.engine.insert(poi)
        grown = engine.run(workloads[1])
        for poi in added:
            assert lsp.engine.delete(poi)
        shrunk = engine.run(workloads[2])
        assert len(bulk_loads) == 3

        fresh = ServeEngine(
            LSPServer(list(pois) + added, space=space, sanitation_samples=SAMPLES),
            config,
            serve,
        ).run(workloads[1])
        assert grown.to_dict() == fresh.to_dict()
        assert {poi.poi_id for poi in added} & {
            poi_id for o in grown.outcomes.values() for poi_id in o.answer_ids
        }
        fresh = ServeEngine(make_lsp(), config, serve).run(workloads[2])
        assert shrunk.to_dict() == fresh.to_dict()

    def test_replicas_share_only_the_index(self, make_lsp, config):
        """Each build is a fresh LSP with its own index counters and kNN cache."""
        spec = LSPSpec.from_lsp(make_lsp())
        one, two = spec.build(), spec.build()
        assert one is not two and one.engine.tree is two.engine.tree
        assert one.engine.index_counters is not two.engine.index_counters
        runners = [BucketRunner(lsp, config, RunnerOptions()) for lsp in (one, two)]
        assert runners[0].lsp.engine.knn_cache is not runners[1].lsp.engine.knn_cache
        centre = [Point(0.5, 0.5)]
        answer = one.engine.query(3, centre)
        assert one.engine.index_counters.queries == 1
        assert two.engine.index_counters.queries == 0
        assert two.engine.query(3, centre) == answer
        with pytest.raises(ConfigurationError):
            one.engine.insert(POI(10_000, Point(0.5, 0.5)))


class TestSchedulingAndBackpressure:
    def test_queue_overflow_counted_as_rejections(self, make_lsp, config, space):
        spec = WorkloadSpec(queries=12, rate_qps=1000.0, groups=2, seed=2)
        report = ServeEngine(
            make_lsp(), config, ServeConfig(workers=1, queue_capacity=2)
        ).run(generate_workload(spec, space))
        assert report.rejected > 0
        assert report.completed + report.rejected == report.queries
        assert all(r.error_type == "QueueFullError" for r in report.rejections)

    def test_tenant_quota_rejects_flood(self, make_lsp, config, space):
        spec = WorkloadSpec(
            queries=12, rate_qps=1000.0, tenants=("solo",), groups=2, seed=2
        )
        report = ServeEngine(
            make_lsp(), config, ServeConfig(workers=1, tenant_quota=2)
        ).run(generate_workload(spec, space))
        assert report.rejected > 0
        assert all(r.error_type == "AdmissionRejectedError" for r in report.rejections)
        assert report.per_tenant["solo"]["rejected"] == report.rejected

    def test_closed_loop_never_overflows(self, make_lsp, config, space):
        """Closed-loop arrivals self-limit to the client concurrency."""
        spec = WorkloadSpec(
            queries=10, arrival="closed", concurrency=3, groups=2, seed=4
        )
        report = ServeEngine(
            make_lsp(), config, ServeConfig(workers=2, queue_capacity=3)
        ).run(generate_workload(spec, space))
        assert report.rejected == 0
        assert report.completed == 10
        assert report.max_queue_depth <= 3

    def test_shortest_cost_prefers_cheap_jobs(self, make_lsp, config, space):
        """Under contention, SJF's mean latency beats FIFO's."""
        spec = WorkloadSpec(
            queries=12,
            rate_qps=1000.0,  # everything arrives at once
            protocol_mix={"ppgnn-opt": 1.0, "naive": 1.0},
            groups=4,
            seed=11,
        )
        workload = generate_workload(spec, space)
        fifo = ServeEngine(
            make_lsp(), config, ServeConfig(workers=1, policy="fifo")
        ).run(workload)
        sjf = ServeEngine(
            make_lsp(), config, ServeConfig(workers=1, policy="shortest-cost")
        ).run(workload)
        assert sjf.latency_mean <= fifo.latency_mean
        assert sjf.answers_digest == fifo.answers_digest  # policy never alters answers


class TestConfigValidation:
    def test_bad_serve_config(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(workers=0)
        # The executor is retired: only "serial" is accepted, and it is
        # neither stored nor reported.
        for executor in ("process", "threads"):
            with pytest.raises(ConfigurationError, match="executor"):
                ServeConfig(executor=executor)
        assert ServeConfig(executor="serial") == ServeConfig()
        assert "executor" not in {f.name for f in fields(ServeConfig)}
        with pytest.raises(ConfigurationError):
            ServeConfig(policy="lifo")
        with pytest.raises(ConfigurationError):
            ServeConfig(queue_capacity=0)
        with pytest.raises(ConfigurationError):
            ServeConfig(tenant_quota=0)
        # Every count is a positive integer and every object field has its
        # type, checked when constructed.
        for bad in (
            {"knn_cache_size": 0},
            {"nonce_chunk": 0},
            {"workers": 2.5},
            {"queue_capacity": 2.5},
            {"tenant_quota": 1.5},
            {"knn_cache_size": 2.5},
            {"workers": True},
            {"cost_model": "x"},
            {"cost_model": None},
        ):
            with pytest.raises(ConfigurationError, match=next(iter(bad))):
                ServeConfig(**bad)
        assert ServeConfig(workers=np.int64(2), knn_cache_size=None).workers == 2

