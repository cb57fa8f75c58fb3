"""The obs-smoke contract: a traced serving run plus targeted error
scenarios must publish every metric OBSERVABILITY.md documents, and the
exported trace must parse and form a well-formed (acyclic) span forest.

Run directly by the ``obs-smoke`` CI job.
"""

import json
import re
from pathlib import Path

import pytest

from repro.core.config import PPGNNConfig
from repro.core.lsp import LSPServer
from repro.crypto.paillier import generate_keypair
from repro.datasets.synthetic import clustered_pois
from repro.errors import GuardError
from repro.geometry.space import LocationSpace
from repro.guard.guard import ProtocolGuard
from repro.obs import (
    Observability,
    Tracer,
    parse_jsonl,
    render_span_tree,
    validate_spans,
)
from repro.partition.layout import GroupLayout
from repro.partition.solver import solve_partition
from repro.serve.engine import ServeConfig, ServeEngine
from repro.serve.workload import WorkloadSpec, generate_workload

DOC = Path(__file__).resolve().parent.parent / "OBSERVABILITY.md"


def documented_metric_names() -> set[str]:
    """Every name in OBSERVABILITY.md's canonical metric table."""
    names = set()
    for line in DOC.read_text(encoding="utf-8").splitlines():
        match = re.match(r"\|\s*`([a-z0-9_.]+)`\s*\|", line)
        if match:
            names.add(match.group(1))
    return names


@pytest.fixture(scope="module")
def served_report():
    """20 queries, guard armed — the main publishing scenario."""
    space = LocationSpace.unit_square()
    lsp = LSPServer(
        clustered_pois(400, space, seed=11), sanitation_samples=16, seed=99
    )
    config = PPGNNConfig(d=3, delta=6, k=3, keysize=128, key_seed=5)
    spec = WorkloadSpec(
        queries=20,
        rate_qps=40.0,
        protocol_mix={"ppgnn": 1.0, "ppgnn-opt": 1.0, "naive": 1.0},
        group_size_mix={2: 1.0, 3: 1.0},
        k_mix={3: 1.0},
        tenants=("t0", "t1"),
        groups=5,
        repeat_fraction=0.2,
        seed=33,
    )
    serve = ServeConfig(workers=2, obs=True, guard=True)
    return ServeEngine(lsp, config, serve).run(generate_workload(spec, space))


def _guard_scenarios() -> Observability:
    """Drive a round guard into a state violation."""
    obs = Observability()
    keypair = generate_keypair(128, seed=54321)
    rg = ProtocolGuard(obs=obs).begin(
        layout=GroupLayout(solve_partition(2, 3, 6)),
        public_key=keypair.public_key,
        space=LocationSpace.unit_square(),
        k=3,
        answer_m=2,
    )
    # Planning twice is out of choreography.
    rg.planned()
    with pytest.raises(GuardError):
        rg.planned()
    return obs


def _dropped_spans_scenario(monkeypatch) -> set[str]:
    """A tiny trace ring buffer overflows → ``obs.trace.spans_dropped``.

    The bucket's tracer keeps the default 4,096 spans, which this run
    never fills, so the test hands the bucket a four-span ring instead.
    """
    space = LocationSpace.unit_square()
    lsp = LSPServer(
        clustered_pois(120, space, seed=11), sanitation_samples=8, seed=99
    )
    config = PPGNNConfig(d=3, delta=6, k=3, keysize=128, key_seed=5, sanitize=False)
    spec = WorkloadSpec(
        queries=6,
        rate_qps=40.0,
        protocol_mix={"ppgnn": 1.0},
        group_size_mix={2: 1.0},
        k_mix={3: 1.0},
        tenants=("t0",),
        groups=2,
        seed=33,
    )
    serve = ServeConfig(workers=1, obs=True)
    with monkeypatch.context() as patch:
        patch.setattr(
            "repro.serve.pool.Observability",
            lambda: Observability(tracer=Tracer(capacity=4)),
        )
        report = ServeEngine(lsp, config, serve).run(generate_workload(spec, space))
    counters = report.obs["metrics"]["counters"]
    assert counters["obs.trace.spans_dropped"] > 0
    return set(counters)


class TestObsSmoke:
    def test_twenty_queries_complete(self, served_report):
        assert served_report.queries == 20
        assert served_report.completed + served_report.failed == 20
        assert served_report.obs is not None

    def test_trace_jsonl_parses_and_is_acyclic(self, served_report, tmp_path):
        trace_path = tmp_path / "trace.jsonl"
        with trace_path.open("w", encoding="utf-8") as fh:
            for span in served_report.obs["spans"]:
                fh.write(json.dumps(span, sort_keys=True) + "\n")
        spans = parse_jsonl(trace_path.read_text(encoding="utf-8"))
        assert spans, "a 20-query traced run must export spans"
        validate_spans(spans)  # duplicate ids, missing parents, cycles
        assert render_span_tree(spans)  # renders without raising

    def test_span_names_cover_the_protocol_layers(self, served_report):
        names = {span["name"] for span in served_report.obs["spans"]}
        assert "session.query" in names
        assert names & {"round.ppgnn", "round.ppgnn-opt", "round.naive"}
        assert "coordinator.decrypt" in names
        assert "uploads" in names

    def test_every_documented_metric_is_published(self, served_report, monkeypatch):
        documented = documented_metric_names()
        assert len(documented) >= 24, "metric table went missing from the doc"
        metrics = served_report.obs["metrics"]
        published = (
            set(metrics["counters"])
            | set(metrics["gauges"])
            | set(metrics["histograms"])
        )
        published |= _guard_scenarios().snapshot().names
        published |= _dropped_spans_scenario(monkeypatch)
        missing = documented - published
        assert not missing, f"documented but never published: {sorted(missing)}"

    def test_no_undocumented_metrics_leak(self, served_report):
        """The doc table is the registry of record — additions go there."""
        documented = documented_metric_names()
        metrics = served_report.obs["metrics"]
        published = (
            set(metrics["counters"])
            | set(metrics["gauges"])
            | set(metrics["histograms"])
        )
        undocumented = published - documented
        assert not undocumented, f"published but not documented: {sorted(undocumented)}"

    def test_latency_histogram_observed_every_planned_job(self, served_report):
        hist = served_report.obs["metrics"]["histograms"]["serve.latency_seconds"]
        assert hist["count"] == served_report.completed + served_report.failed
