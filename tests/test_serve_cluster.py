"""The serving engine with a scatter–gather cluster threaded underneath."""

import numpy as np
import pytest

from repro.cluster import ClusterConfig, ShardFaultPlan
from repro.core.config import PPGNNConfig
from repro.core.lsp import LSPServer
from repro.datasets.synthetic import uniform_pois
from repro.errors import ConfigurationError
from repro.geometry.space import LocationSpace
from repro.serve import (
    ServeConfig,
    ServeEngine,
    ServingReport,
    WorkloadSpec,
    generate_workload,
)

SAMPLES = 8


@pytest.fixture(scope="module")
def space():
    return LocationSpace.unit_square()


@pytest.fixture(scope="module")
def pois(space):
    return uniform_pois(200, space, np.random.default_rng(7))


@pytest.fixture(scope="module")
def config():
    return PPGNNConfig(
        d=4, delta=8, k=3, keysize=128,
        sanitize=False, sanitation_samples=SAMPLES,
    )


@pytest.fixture
def make_lsp(pois, space):
    def build():
        return LSPServer(pois, space=space, sanitation_samples=SAMPLES)

    return build


MIXED = WorkloadSpec(
    queries=10,
    rate_qps=10.0,
    protocol_mix={"ppgnn": 1.0, "ppgnn-opt": 1.0, "naive": 1.0},
    group_size_mix={2: 1.0, 3: 1.0},
    k_mix={3: 1.0},
    tenants=("a", "b"),
    groups=3,
    repeat_fraction=0.2,
    seed=5,
)

CLUSTER = ClusterConfig(shards=3, replicas=2, quorum=0.5)


class TestHealthyClusterIdentity:
    def test_cluster_answers_equal_single_lsp(self, make_lsp, config, space):
        """With every shard healthy, the merge reproduces the single-LSP run."""
        workload = generate_workload(MIXED, space)
        single = ServeEngine(
            make_lsp(), config, ServeConfig(workers=2)
        ).run(workload)
        clustered = ServeEngine(
            make_lsp(), config, ServeConfig(workers=2, cluster=CLUSTER)
        ).run(workload)
        for job_id, outcome in single.outcomes.items():
            shard_outcome = clustered.outcomes[job_id]
            assert shard_outcome.answer_ids == outcome.answer_ids
            assert not shard_outcome.partial
            assert shard_outcome.coverage == 1.0

    def test_serial_and_process_cluster_reports_match(
        self, make_lsp, config, space
    ):
        workload = generate_workload(MIXED, space)
        serial = ServeEngine(
            make_lsp(),
            config,
            ServeConfig(workers=3, executor="serial", cluster=CLUSTER),
        ).run(workload)
        process = ServeEngine(
            make_lsp(),
            config,
            ServeConfig(workers=3, executor="process", cluster=CLUSTER),
        ).run(workload)
        a, b = serial.to_dict(), process.to_dict()
        assert a.pop("executor") == "serial"
        assert b.pop("executor") == "process"
        assert a == b
        assert serial.cluster == process.cluster

    def test_report_carries_cluster_section(self, make_lsp, config, space):
        report = ServeEngine(
            make_lsp(), config, ServeConfig(workers=2, cluster=CLUSTER)
        ).run(generate_workload(MIXED, space))
        section = report.cluster
        assert section is not None
        assert section["shards"] == 3
        assert section["replicas"] == 2
        assert section["subqueries"] == 3 * report.completed
        assert section["partial_answers"] == 0
        assert section["coverage_min"] == 1.0
        assert set(section["per_shard"]) == {"0", "1", "2"}
        assert section["load_imbalance"] >= 1.0

    def test_report_round_trips_cluster_section(self, make_lsp, config, space):
        report = ServeEngine(
            make_lsp(), config, ServeConfig(workers=2, cluster=CLUSTER)
        ).run(generate_workload(MIXED, space))
        again = ServingReport.from_dict(report.to_dict())
        assert again.cluster == report.cluster

    def test_no_cluster_key_when_cluster_is_none(self, make_lsp, config, space):
        """cluster=None keeps the report shape (and pinned digests) untouched."""
        report = ServeEngine(
            make_lsp(), config, ServeConfig(workers=2)
        ).run(generate_workload(MIXED, space))
        assert report.cluster is None
        assert "cluster" not in report.to_dict()
        for outcome in report.outcomes.values():
            assert not outcome.partial
            assert outcome.coverage == 1.0
            assert outcome.lost_shards == ()


class TestClusterNoncePools:
    #: answers_digest of this run when cluster pools refilled at full width.
    DIGEST = "23d13a3a38ec9f695d448b981c20ee231b599e39c0a60f9c6d43191612e531ac"

    def test_sharded_pools_refill_on_the_owner_path(
        self, make_lsp, config, space
    ):
        """Each cell owns its group's key pair, as in the single-LSP bucket."""
        from repro.crypto import fastexp

        with fastexp.forced(True):
            report = ServeEngine(
                make_lsp(),
                config,
                ServeConfig(workers=2, executor="serial", cluster=CLUSTER, obs=True),
            ).run(generate_workload(MIXED, space))
        counters = report.obs["metrics"]["counters"]
        assert counters["serve.pool.pooled"] > 0
        assert counters["crypto.fastexp.crt_split"] > 0
        assert counters["crypto.fastexp.windowed"] == 0
        assert report.answers_digest == self.DIGEST


class TestDegradedCluster:
    def test_killed_shard_yields_partial_outcomes(self, make_lsp, config, space):
        faults = ShardFaultPlan.killing({(1, 0): 0, (1, 1): 0}, seed=3)
        cluster = ClusterConfig(shards=3, replicas=2, quorum=0.5, faults=faults)
        report = ServeEngine(
            make_lsp(), config, ServeConfig(workers=2, cluster=cluster)
        ).run(generate_workload(MIXED, space))
        partials = [o for o in report.outcomes.values() if o.partial]
        assert partials and len(partials) == report.completed
        for outcome in partials:
            assert outcome.lost_shards == (1,)
            assert 0.0 < outcome.coverage < 1.0
            assert outcome.expected_recall == pytest.approx(outcome.coverage)
        assert report.cluster["partial_answers"] == len(partials)
        assert report.cluster["shards_lost"] == len(partials)
        assert report.cluster["coverage_min"] < 1.0
        assert 0.0 < report.cluster["mean_expected_recall"] < 1.0

    def test_partial_outcomes_change_the_digest(self, make_lsp, config, space):
        """Degraded answers are first-class: the digest pins their coverage."""
        workload = generate_workload(MIXED, space)
        healthy = ServeEngine(
            make_lsp(), config, ServeConfig(workers=2, cluster=CLUSTER)
        ).run(workload)
        faults = ShardFaultPlan.killing({(1, 0): 0, (1, 1): 0}, seed=3)
        degraded = ServeEngine(
            make_lsp(),
            config,
            ServeConfig(
                workers=2,
                cluster=ClusterConfig(
                    shards=3, replicas=2, quorum=0.5, faults=faults
                ),
            ),
        ).run(workload)
        assert healthy.answers_digest != degraded.answers_digest

    def test_below_quorum_jobs_fail_typed(self, make_lsp, config, space):
        kills = {(s, r): 0 for s in (0, 1) for r in (0, 1)}
        cluster = ClusterConfig(
            shards=3, replicas=2, quorum=0.9,
            faults=ShardFaultPlan.killing(kills, seed=3),
        )
        report = ServeEngine(
            make_lsp(), config, ServeConfig(workers=2, cluster=cluster)
        ).run(generate_workload(MIXED, space))
        assert report.completed == 0
        assert report.failed == report.queries
        for outcome in report.outcomes.values():
            assert outcome.error_type == "ShardLostError"


class TestClusterConfigValidation:
    def test_process_executor_rejects_more_shards_than_workers(self):
        """Satellite 2: only the process executor is capacity-bound."""
        with pytest.raises(ConfigurationError, match="exceed"):
            ServeConfig(
                workers=2,
                executor="process",
                cluster=ClusterConfig(shards=3),
            )

    def test_serial_executor_allows_more_shards_than_workers(self):
        ServeConfig(
            workers=2, executor="serial", cluster=ClusterConfig(shards=3)
        )

    def test_engine_rejects_sanitized_cluster_config(self, make_lsp, space):
        sanitized = PPGNNConfig(
            d=4, delta=8, k=3, keysize=128,
            sanitize=True, sanitation_samples=SAMPLES,
        )
        with pytest.raises(ConfigurationError, match="sanitize"):
            ServeEngine(
                make_lsp(),
                sanitized,
                ServeConfig(workers=2, cluster=ClusterConfig(shards=2)),
            )

    def test_rejects_non_cluster_object(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(workers=2, cluster=object())
