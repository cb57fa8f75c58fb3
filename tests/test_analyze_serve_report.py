"""Serving-report analysis: queue-delay attribution, the ``repro analyze``
rendering, and the report reader, over real serving runs."""

import json

import numpy as np
import pytest

from repro.core.config import PPGNNConfig
from repro.core.lsp import LSPServer
from repro.datasets.synthetic import uniform_pois
from repro.errors import ReproError
from repro.geometry.space import LocationSpace
from repro.obs import analyze_serve_report, queue_delay_summary
from repro.obs.analyze import load_report_document
from repro.serve import ServeConfig, ServeEngine, WorkloadSpec, generate_workload

SAMPLES = 8


@pytest.fixture(scope="module")
def report():
    """One obs-enabled serving run shared by every test."""
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
    engine = ServeEngine(lsp, config, ServeConfig(workers=2, obs=True))
    return engine.run(generate_workload(spec, space))


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
        rendered = analyze_serve_report(report)
        for phase in ("crypto", "transport", "queue", "compute"):
            assert phase in rendered
        assert "critical path:" in rendered
        assert "queue delay:" in rendered
        assert "per-query ops" in rendered

    def test_without_obs_payload_degrades_gracefully(self, report):
        data = report.to_dict()
        data.pop("obs", None)
        rendered = analyze_serve_report(data)
        assert "no spans embedded" in rendered
        assert "queue delay:" in rendered


class TestLoadReportDocument:
    def test_missing_or_non_numeric_field_is_named(self, report):
        """Each case used to end in a bare KeyError or TypeError in the
        analyzer, which the CLI printed as a traceback."""
        data = json.loads(json.dumps(report.to_dict()))
        assert load_report_document(json.dumps(data)) == data
        protocol = sorted(data["per_protocol"])[0]

        def without(section, key):
            broken = json.loads(json.dumps(data))
            del broken[section][key]
            return broken

        def replaced(value, *path):
            broken = json.loads(json.dumps(data))
            target = broken
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
            return broken

        no_entry_mean = json.loads(json.dumps(data))
        del no_entry_mean["per_protocol"][protocol]["mean_predicted_seconds"]
        cases = (
            ({"latency": {}, "queue": {}}, "latency.mean"),
            (without("latency", "mean"), "latency.mean"),
            (without("queue", "max_depth"), "queue.max_depth"),
            (without("queue", "mean_depth"), "queue.mean_depth"),
            (no_entry_mean, f"per_protocol.{protocol}.mean_predicted_seconds"),
            (replaced("x", "latency", "mean"), "latency.mean"),
            (replaced(None, "queue", "mean_depth"), "queue.mean_depth"),
            (replaced(True, "queue", "max_depth"), "queue.max_depth"),
            (replaced("3", "per_protocol", protocol, "count"), f"per_protocol.{protocol}.count"),
            (replaced("12", "completed"), "completed"),
            (replaced(5, "latency"), "latency.mean"),
            (replaced([], "per_protocol"), "per_protocol"),
            # The obs payload: an AttributeError, TypeError or KeyError each.
            (replaced("x", "obs"), "obs"),
            (replaced([], "obs", "metrics"), "obs.metrics"),
            (
                replaced("x", "obs", "metrics", "counters", "crypto.encryptions"),
                "obs.metrics.counters.crypto.encryptions",
            ),
            (replaced("x", "obs", "spans"), "obs.spans"),
            (replaced([{"name": "x"}], "obs", "spans"), "trace line 1"),
            (replaced([{"span_id": 1, "name": "x", "start": "0"}], "obs", "spans"), "start"),
        )
        for broken, field in cases:
            with pytest.raises(ReproError, match=field):
                load_report_document(json.dumps(broken))
        # Nor is a non-finite one (json reads NaN), or an integer no float
        # can hold.
        for value in (float("nan"), float("inf"), 10**400):
            with pytest.raises(ReproError, match="queue.mean_depth"):
                load_report_document(json.dumps(replaced(value, "queue", "mean_depth")))
