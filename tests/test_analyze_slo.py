"""SLO evaluation and queue-delay attribution over real serving runs."""

import numpy as np
import pytest

from repro.core.config import PPGNNConfig
from repro.core.lsp import LSPServer
from repro.datasets.synthetic import uniform_pois
from repro.errors import ConfigurationError
from repro.geometry.space import LocationSpace
from repro.obs import (
    SLOPolicy,
    analyze_serve_report,
    evaluate_slo,
    queue_delay_summary,
)
from repro.serve import ServeConfig, ServeEngine, WorkloadSpec, generate_workload

SAMPLES = 8


@pytest.fixture(scope="module")
def report():
    """One obs-enabled serving run shared by every SLO test."""
    space = LocationSpace.unit_square()
    pois = uniform_pois(200, space, np.random.default_rng(7))
    lsp = LSPServer(pois, space=space, sanitation_samples=SAMPLES)
    config = PPGNNConfig(d=4, delta=8, k=3, keysize=128)
    spec = WorkloadSpec(
        queries=12,
        rate_qps=200.0,  # arrivals outpace service so the queue really forms
        protocol_mix={"ppgnn": 1.0, "naive": 1.0},
        group_size_mix={2: 1.0, 3: 1.0},
        k_mix={3: 1.0},
        tenants=("a", "b"),
        groups=4,
        repeat_fraction=0.25,
        seed=5,
    )
    engine = ServeEngine(
        lsp, config, ServeConfig(workers=2, policy="fifo", obs=True)
    )
    return engine.run(generate_workload(spec, space))


class TestPolicyValidation:
    def test_budgets_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SLOPolicy(latency_p95=0)
        with pytest.raises(ConfigurationError):
            SLOPolicy(queue_wait_budget=-1)
        with pytest.raises(ConfigurationError):
            SLOPolicy(error_budget=1.5)


class TestEvaluateSlo:
    def test_generous_budgets_hold(self, report):
        policy = SLOPolicy(
            latency_p50=1e6, latency_p95=1e6, latency_p99=1e6,
            error_budget=1.0, queue_wait_budget=1e6,
        )
        slo = evaluate_slo(report, policy)
        assert slo.ok
        assert {r.objective for r in slo.results} == {
            "latency_p50", "latency_p95", "latency_p99",
            "error_fraction", "mean_queue_wait",
        }
        for result in slo.results:
            assert result.burn_rate <= 1.0

    def test_impossible_latency_budget_violated_with_burn(self, report):
        data = report.to_dict()
        p95 = data["latency"]["p95"]
        assert p95 > 0
        policy = SLOPolicy(latency_p95=p95 / 4)
        slo = evaluate_slo(report, policy)
        violated = {r.objective: r for r in slo.results}["latency_p95"]
        assert not violated.ok and not slo.ok
        assert violated.burn_rate == pytest.approx(4.0)

    def test_error_fraction_counts_failures_and_rejections(self, report):
        data = report.to_dict()
        slo = evaluate_slo(report, SLOPolicy(error_budget=0.5))
        error = {r.objective: r for r in slo.results}["error_fraction"]
        expected = (data["failed"] + data["rejected"]) / data["queries"]
        assert error.actual == pytest.approx(expected)

    def test_accepts_dict_and_object_identically(self, report):
        policy = SLOPolicy(latency_p95=1.0)
        assert (
            evaluate_slo(report, policy).to_dict()
            == evaluate_slo(report.to_dict(), policy).to_dict()
        )


class TestQueueDelay:
    def test_latency_identity(self, report):
        """mean latency == mean queue wait + count-weighted mean service."""
        data = report.to_dict()
        summary = queue_delay_summary(report)
        per_protocol = data["per_protocol"]
        planned = sum(e["count"] for e in per_protocol.values())
        service = sum(
            e["count"] * e["mean_predicted_seconds"]
            for e in per_protocol.values()
        ) / planned
        assert summary.mean_service == pytest.approx(service)
        assert summary.mean_queue_wait + summary.mean_service == pytest.approx(
            summary.mean_latency
        )

    def test_fast_arrivals_actually_queue(self, report):
        summary = queue_delay_summary(report)
        assert summary.mean_queue_wait > 0
        assert 0 < summary.queue_fraction < 1
        assert summary.max_queue_depth >= 1

    def test_render_mentions_depth(self, report):
        rendered = queue_delay_summary(report).render()
        assert "queue delay:" in rendered and "depth max" in rendered


class TestAnalyzeServeReport:
    def test_renders_all_phases_and_sections(self, report):
        rendered = analyze_serve_report(
            report, SLOPolicy(latency_p95=1e6, error_budget=1.0)
        )
        for phase in ("crypto", "transport", "queue", "compute"):
            assert phase in rendered
        assert "critical path:" in rendered
        assert "queue delay:" in rendered
        assert "per-query ops" in rendered
        assert "slo evaluation:" in rendered

    def test_without_obs_payload_degrades_gracefully(self, report):
        data = report.to_dict()
        data.pop("obs", None)
        rendered = analyze_serve_report(data)
        assert "no spans embedded" in rendered
        assert "queue delay:" in rendered
