"""Observability must be invisible when off and exact when on.

Three contracts:

1. ``obs=None`` (the default) is byte-identical to the pre-observability
   code: a pinned serving fixture's ``answers_digest`` and full-report
   SHA-256 must never move (the ``guard=None`` regression pattern), and
   neither may those of the rejection, closed-loop and guarded shapes.
2. ``obs=Observability()`` changes *observations only*: answers and comm
   bytes match the bare run for every protocol.
3. With tracing on, a round span's encryption / decryption / kGNN-query
   attributes equal ``CostModel.predict_ops`` exactly — the ISSUE's
   acceptance criterion tying traces to the cost model.
"""

import hashlib
import json
import numpy as np
import pytest

from repro.core.config import PPGNNConfig
from repro.core.group import run_ppgnn
from repro.core.lsp import LSPServer
from repro.core.naive import run_naive
from repro.core.opt import run_ppgnn_opt
from repro.datasets.synthetic import clustered_pois
from repro.geometry.space import LocationSpace
from repro.obs import Observability
from repro.serve.costs import CostModel
from repro.serve.engine import ServeConfig, ServeEngine
from repro.serve.workload import WorkloadSpec, generate_workload

# Pinned from the pre-observability serving engine (12-query fixture).
# Every report SHA-256 in this file is of the report before the fault
# layer was deleted, with its then-constant ``transport`` key
# ({"retransmissions": 0, "corrupt_rejected": 0}) removed, before the
# process executor was retired, with its ``executor`` key removed, and
# before the scheduling policies were retired, with its ``policy`` key
# removed (every pinned run was FIFO by then).
EXPECTED_ANSWERS_DIGEST = (
    "22ffdc8b6366ab98e6f29a79996e63086759d12b65a4bfae08f5be09c4bd795e"
)
EXPECTED_REPORT_SHA256 = (
    "bf3d008183268bedbf51a099ac4c4a3182063141153edd034d333314e33c91f8"
)

_RUNNERS = {
    "ppgnn": run_ppgnn,
    "ppgnn-opt": run_ppgnn_opt,
    "naive": run_naive,
}


@pytest.fixture(scope="module")
def space():
    return LocationSpace.unit_square()


@pytest.fixture(scope="module")
def config():
    return PPGNNConfig(d=3, delta=6, k=3, keysize=128, key_seed=5)


@pytest.fixture(scope="module")
def workload(space):
    spec = WorkloadSpec(
        queries=12,
        rate_qps=50.0,
        protocol_mix={"ppgnn": 1.0, "ppgnn-opt": 1.0, "naive": 1.0},
        group_size_mix={2: 1.0, 3: 1.0},
        k_mix={3: 1.0},
        tenants=("t0", "t1"),
        groups=4,
        repeat_fraction=0.25,
        seed=21,
    )
    return generate_workload(spec, space)


def _make_lsp(space):
    return LSPServer(
        clustered_pois(500, space, seed=11), sanitation_samples=16, seed=99
    )


def _run_fixture(space, config, workload, obs: bool):
    engine = ServeEngine(
        _make_lsp(space), config, ServeConfig(workers=2, obs=obs)
    )
    return engine.run(workload)


_MIX = {
    "protocol_mix": {"ppgnn": 1.0, "ppgnn-opt": 1.0, "naive": 1.0},
    "group_size_mix": {2: 1.0, 3: 1.0},
    "k_mix": {3: 1.0},
}

# Serving shapes beyond the open-loop fixture: each takes a plan-loop
# or guard branch the default run never does.  The guarded shape's
# answers digest was recorded before the fault layer was deleted, and
# the closed loop's under the retired fair-share policy, which served
# the same answers.  The rejection shape lost its tenant quota and its
# shortest-cost policy, so its pins were taken at the last commit that
# had them, running the FIFO, quota-free configuration below.
_SHAPES = {
    # A burst overflows a three-slot queue: 11 jobs complete and 19 are
    # rejected, each as QueueFullError.
    "queue-rejections": (
        "47c5b0d25d5555e9f53cadbf484bcb7bd49e2beda42c754d46fcadbdcfae598d",
        "bbf7974eded5cdb49354202de9b505578811befd9e5b9cb9653bf9f57f31901f",
    ),
    # Closed-loop clients chain each next arrival off a completion.
    "closed-loop": (
        "b7c7a12f138a11aa2ea759caa1bdd390d1d7cab0b2d1aafe5235e61d43406ac0",
        "c6e4b3b6838cdbbc5b17c79bf160b54f2f183e7f9afc4d6fe14abb192e637186",
    ),
    # Guarded rounds: every job completes.
    "guarded": (
        "a7645c5dfd97e98785e8b253a17d72c03e78fb18d876b9f802d381de63dbdbe8",
        "db1ead49e41c6852cd762504766449252c6b2f81d8d7a5c2fb1a8a99e8ddb1df",
    ),
}


def _run_shape(shape, space, config):
    if shape == "queue-rejections":
        spec = WorkloadSpec(
            queries=30, rate_qps=4000.0, tenants=("t0", "t1", "t2"),
            groups=6, repeat_fraction=0.2, seed=31, **_MIX,
        )
        serve = ServeConfig(workers=2, queue_capacity=3)
    elif shape == "closed-loop":
        spec = WorkloadSpec(
            queries=12, arrival="closed", concurrency=3, think_seconds=0.01,
            tenants=("t0", "t1"), groups=4, repeat_fraction=0.25, seed=32,
            **_MIX,
        )
        serve = ServeConfig(workers=2)
    else:
        spec = WorkloadSpec(
            queries=8, rate_qps=20.0, tenants=("t0", "t1"), groups=3,
            repeat_fraction=0.25, seed=33, **_MIX,
        )
        serve = ServeConfig(workers=2, guard=True)
    engine = ServeEngine(_make_lsp(space), config, serve)
    return engine.run(generate_workload(spec, space))


def _report_sha256(report):
    return hashlib.sha256(
        json.dumps(report.to_dict(), sort_keys=True).encode()
    ).hexdigest()


class TestObsNoneByteIdentical:
    def test_serving_fixture_digests_pinned(self, space, config, workload):
        report = _run_fixture(space, config, workload, obs=False)
        assert report.answers_digest == EXPECTED_ANSWERS_DIGEST
        assert _report_sha256(report) == EXPECTED_REPORT_SHA256
        assert report.obs is None
        assert "obs" not in report.to_dict()

    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_serving_shape_digests_pinned(self, shape, space, config):
        report = _run_shape(shape, space, config)
        assert (report.answers_digest, _report_sha256(report)) == _SHAPES[shape]
        if shape == "queue-rejections":
            assert (report.completed, report.rejected) == (11, 19)
            assert {r.error_type for r in report.rejections} == {"QueueFullError"}

    def test_obs_on_changes_observations_only(self, space, config, workload):
        bare = _run_fixture(space, config, workload, obs=False)
        observed = _run_fixture(space, config, workload, obs=True)
        assert observed.answers_digest == bare.answers_digest
        observed_dict = observed.to_dict()
        assert observed_dict.pop("obs") is not None
        assert observed_dict == bare.to_dict()

    def test_obs_run_is_deterministic(self, space, config, workload):
        a = _run_fixture(space, config, workload, obs=True)
        b = _run_fixture(space, config, workload, obs=True)
        assert a.to_dict() == b.to_dict()

    @pytest.mark.parametrize("protocol", sorted(_RUNNERS))
    def test_direct_runs_match_per_protocol(self, protocol, space, config):
        rng = np.random.default_rng(42)
        locations = [space.sample_point(rng) for _ in range(3)]
        bare = _RUNNERS[protocol](
            _make_lsp(space), locations, config, seed=7
        )
        observed = _RUNNERS[protocol](
            _make_lsp(space), locations, config, seed=7, obs=Observability()
        )
        assert observed.answer_ids == bare.answer_ids
        assert (
            observed.report.total_comm_bytes == bare.report.total_comm_bytes
        )


class TestSpanOpsMatchCostModel:
    @pytest.mark.parametrize("protocol", sorted(_RUNNERS))
    @pytest.mark.parametrize("n", [2, 3])
    def test_round_span_counts_equal_predict_ops(
        self, protocol, n, space, config
    ):
        rng = np.random.default_rng(13 + n)
        locations = [space.sample_point(rng) for _ in range(n)]
        obs = Observability()
        _RUNNERS[protocol](_make_lsp(space), locations, config, seed=3, obs=obs)
        round_span = next(
            s for s in obs.tracer.spans() if s.name == f"round.{protocol}"
        )
        predicted = CostModel().predict_ops(protocol, n, config)
        assert round_span.attrs["encryptions"] == predicted["encryptions"]
        assert round_span.attrs["decryptions"] == predicted["decryptions"]
        assert round_span.attrs["kgnn_queries"] == predicted["kgnn_queries"]

    @pytest.mark.parametrize("protocol", sorted(_RUNNERS))
    def test_metric_counters_equal_predict_ops(self, protocol, space, config):
        rng = np.random.default_rng(29)
        locations = [space.sample_point(rng) for _ in range(3)]
        obs = Observability()
        _RUNNERS[protocol](_make_lsp(space), locations, config, seed=5, obs=obs)
        counters = obs.snapshot().counters
        predicted = CostModel().predict_ops(protocol, 3, config)
        assert counters["crypto.encryptions"] == predicted["encryptions"]
        decryptions = (
            counters["crypto.decryptions.crt"]
            + counters["crypto.decryptions.generic"]
        )
        assert decryptions == predicted["decryptions"]
        assert counters["lsp.kgnn_queries"] == predicted["kgnn_queries"]

    def test_predict_ops_unknown_protocol(self, config):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            CostModel().predict_ops("bogus", 3, config)
