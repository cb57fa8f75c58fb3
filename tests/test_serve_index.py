"""Serving over every index substrate: one answers digest."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import PPGNNConfig
from repro.core.lsp import LSPServer
from repro.datasets.synthetic import uniform_pois
from repro.errors import ConfigurationError
from repro.geometry.space import LocationSpace
from repro.index.grid import GridIndex
from repro.index.rtree import RTree
from repro.serve import LSPSpec, ServeConfig, ServeEngine, WorkloadSpec, generate_workload

SAMPLES = 8


@pytest.fixture(scope="module")
def space():
    """Unit-square location space shared by every serve-index test."""
    return LocationSpace.unit_square()


@pytest.fixture(scope="module")
def pois(space):
    """Small shared POI set (engine builds are per-test, POIs are not)."""
    return uniform_pois(150, space, np.random.default_rng(11))


@pytest.fixture(scope="module")
def config():
    return PPGNNConfig(d=4, delta=8, k=3, keysize=128)


@pytest.fixture(scope="module")
def workload(space):
    spec = WorkloadSpec(
        queries=6,
        rate_qps=20.0,
        protocol_mix={"ppgnn": 1.0},
        group_size_mix={2: 1.0, 3: 1.0},
        k_mix={3: 1.0},
        groups=3,
        seed=17,
    )
    return generate_workload(spec, space)


def _report(pois, space, config, workload, index):
    lsp = LSPServer(pois, space=space, sanitation_samples=SAMPLES)
    engine = ServeEngine(
        lsp,
        config,
        ServeConfig(workers=1, nonce_pool=False, knn_cache_size=None, index=index),
    )
    return engine.run(workload)


class TestExactDigestIdentity:
    @pytest.mark.parametrize("kind", ["grid", "bruteforce"])
    def test_exact_kind_matches_rtree_digest(
        self, kind, pois, space, config, workload
    ):
        reference = _report(pois, space, config, workload, "rtree")
        got = _report(pois, space, config, workload, kind)
        assert got.answers_digest == reference.answers_digest
        assert all(o.ok for o in got.outcomes.values())

    def test_engines_over_one_lsp_keep_their_kind(
        self, pois, space, config, workload, monkeypatch
    ):
        """Two engines over one primary each build and keep the kind they asked for."""
        built = []
        original = LSPSpec.build

        def build(spec):
            replica = original(spec)
            built.append(type(replica.engine.tree))
            return replica

        monkeypatch.setattr(LSPSpec, "build", build)
        lsp = LSPServer(pois, space=space, sanitation_samples=SAMPLES)
        serve = ServeConfig(workers=1, nonce_pool=False, knn_cache_size=None)
        grid = ServeEngine(lsp, config, replace(serve, index="grid"))
        default = ServeEngine(lsp, config, serve)
        digests = set()
        for engine, kind in ((grid, GridIndex), (default, RTree), (grid, GridIndex)):
            digests.add(engine.run(workload).answers_digest)
            assert built.pop() is kind
        assert len(digests) == 1


class TestConfigValidation:
    def test_unknown_index_rejected(self):
        with pytest.raises(ConfigurationError):
            ServeConfig(index="quadtree")


class TestIndexMetrics:
    def test_index_counters_published(self, pois, space, config, workload):
        lsp = LSPServer(pois, space=space, sanitation_samples=SAMPLES)
        engine = ServeEngine(
            lsp,
            config,
            ServeConfig(
                workers=1,
                nonce_pool=False,
                knn_cache_size=None,
                index="rtree",
                obs=True,
            ),
        )
        report = engine.run(workload)
        counters = report.obs["metrics"]["counters"]
        assert counters.get("index.queries", 0) > 0
        assert counters.get("index.candidates_scored", 0) > 0
        assert "index.nodes_visited" in counters
