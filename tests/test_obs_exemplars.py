"""Histogram exemplars and the serve.job span plumbing behind them.

The contract has two halves: with ``ServeConfig(exemplars=True)`` every
latency observation may carry the span id of its job, per-bucket keeping
the worst observation; with exemplars off (the default) the serving
report — answers digest and every byte — is identical to a pre-exemplar
run, enforced against the pinned regression fixture.
"""

import hashlib
import json

import pytest

from repro.core.config import PPGNNConfig
from repro.core.lsp import LSPServer
from repro.datasets.synthetic import clustered_pois
from repro.errors import ConfigurationError, ReproError
from repro.geometry.space import LocationSpace
from repro.obs import Histogram, MetricsRegistry, render_exemplars
from repro.serve.engine import ServeConfig, ServeEngine
from repro.serve.workload import WorkloadSpec, generate_workload

from tests.test_obs_regression import (
    EXPECTED_ANSWERS_DIGEST,
    EXPECTED_REPORT_SHA256,
)


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


def _run(space, config, workload, **serve_kwargs):
    lsp = LSPServer(
        clustered_pois(500, space, seed=11), sanitation_samples=16, seed=99
    )
    return ServeEngine(
        lsp, config, ServeConfig(workers=2, **serve_kwargs)
    ).run(workload)


class TestHistogramExemplars:
    def test_keeps_worst_per_bucket(self):
        hist = Histogram(buckets=(1.0, 10.0))
        hist.observe(0.5, exemplar=7)
        hist.observe(0.9, exemplar=8)
        hist.observe(0.2, exemplar=9)
        hist.observe(5.0, exemplar=10)
        hist.observe(100.0, exemplar=11)  # overflow bucket
        data = hist.to_dict()
        assert data["exemplars"] == {
            "0": {"value": 0.9, "span": 8},
            "1": {"value": 5.0, "span": 10},
            "2": {"value": 100.0, "span": 11},
        }

    def test_order_invariant(self):
        a, b = Histogram(buckets=(1.0,)), Histogram(buckets=(1.0,))
        samples = [(0.5, 3), (0.9, 1), (0.9, 2), (0.1, 9)]
        for value, span in samples:
            a.observe(value, exemplar=span)
        for value, span in reversed(samples):
            b.observe(value, exemplar=span)
        assert a.to_dict() == b.to_dict()

    def test_no_exemplars_key_without_exemplars(self):
        hist = Histogram(buckets=(1.0,))
        hist.observe(0.5)
        assert "exemplars" not in hist.to_dict()

    def test_merge_snapshot_carries_exemplars(self):
        source = MetricsRegistry()
        source.histogram("h", buckets=(1.0,)).observe(0.4, exemplar=5)
        target = MetricsRegistry()
        target.histogram("h", buckets=(1.0,)).observe(0.9, exemplar=2)
        target.merge_snapshot(source.snapshot())
        merged = target.snapshot().histograms["h"]
        assert merged["exemplars"] == {"0": {"value": 0.9, "span": 2}}
        assert merged["count"] == 2


class TestServeConfigValidation:
    def test_exemplars_require_obs(self):
        with pytest.raises(ConfigurationError, match="obs=True"):
            ServeConfig(workers=1, exemplars=True)

    def test_trace_capacity_requires_obs(self):
        with pytest.raises(ConfigurationError, match="obs=True"):
            ServeConfig(workers=1, trace_capacity=16)

    def test_trace_capacity_must_be_positive(self):
        with pytest.raises(ConfigurationError, match=">= 1"):
            ServeConfig(workers=1, obs=True, trace_capacity=0)


class TestExemplarsOffByteIdentical:
    def test_pinned_fixture_digests_unmoved(self, space, config, workload):
        report = _run(space, config, workload, obs=False)
        assert report.answers_digest == EXPECTED_ANSWERS_DIGEST
        sha = hashlib.sha256(
            json.dumps(report.to_dict(), sort_keys=True).encode()
        ).hexdigest()
        assert sha == EXPECTED_REPORT_SHA256

    def test_obs_without_exemplars_emits_neither_key_nor_span(
        self, space, config, workload
    ):
        report = _run(space, config, workload, obs=True).to_dict()
        histograms = report["obs"]["metrics"]["histograms"]
        assert all("exemplars" not in h for h in histograms.values())
        assert all(s["name"] != "serve.job" for s in report["obs"]["spans"])
        assert (
            "serve.exemplars.recorded"
            not in report["obs"]["metrics"]["counters"]
        )


class TestExemplarsOn:
    @pytest.fixture(scope="class")
    def reports(self, space, config, workload):
        plain = _run(space, config, workload, obs=True)
        exemplared = _run(space, config, workload, obs=True, exemplars=True)
        return plain, exemplared

    def test_answers_and_report_body_identical(self, reports):
        plain, exemplared = reports
        assert exemplared.answers_digest == plain.answers_digest
        a, b = plain.to_dict(), exemplared.to_dict()
        a.pop("obs"), b.pop("obs")
        assert a == b

    def test_latency_histogram_totals_bit_identical(self, reports):
        plain, exemplared = reports
        a = plain.to_dict()["obs"]["metrics"]["histograms"][
            "serve.latency_seconds"
        ]
        b = dict(
            exemplared.to_dict()["obs"]["metrics"]["histograms"][
                "serve.latency_seconds"
            ]
        )
        b.pop("exemplars")
        assert a == b

    def test_exemplars_resolve_to_serve_job_spans(self, reports):
        _, exemplared = reports
        data = exemplared.to_dict()
        spans = {s["span_id"]: s for s in data["obs"]["spans"]}
        latency = data["obs"]["metrics"]["histograms"]["serve.latency_seconds"]
        assert latency["exemplars"]
        for entry in latency["exemplars"].values():
            span = spans[entry["span"]]
            assert span["name"] == "serve.job"
            assert "job_id" in span["attrs"]

    def test_recorded_counter_counts_planned_jobs(self, reports):
        _, exemplared = reports
        counters = exemplared.to_dict()["obs"]["metrics"]["counters"]
        assert counters["serve.exemplars.recorded"] == 12

    def test_exemplar_run_is_deterministic(self, space, config, workload):
        a = _run(space, config, workload, obs=True, exemplars=True)
        b = _run(space, config, workload, obs=True, exemplars=True)
        assert a.to_dict() == b.to_dict()


class TestRenderExemplars:
    def test_renders_span_subtree_with_slowest_path(
        self, space, config, workload
    ):
        report = _run(space, config, workload, obs=True, exemplars=True)
        rendered = render_exemplars(report.to_dict())
        assert "serve.latency_seconds" in rendered
        assert "serve.job" in rendered
        assert "slowest path:" in rendered

    def test_refuses_report_without_obs(self, space, config, workload):
        report = _run(space, config, workload, obs=False)
        with pytest.raises(ReproError, match="no obs payload"):
            render_exemplars(report.to_dict())

    def test_refuses_report_without_exemplars(self, space, config, workload):
        report = _run(space, config, workload, obs=True)
        with pytest.raises(ReproError, match="off by default"):
            render_exemplars(report.to_dict())
