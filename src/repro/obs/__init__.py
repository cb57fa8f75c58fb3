"""repro.obs — zero-dependency tracing, metrics, and profiling hooks.

The library layers (serving engine, runners, guard, Paillier) accept an
optional :class:`Observability` handle.  ``obs=None`` — the default
everywhere — is a hard no-op with byte-identical behaviour, enforced by
regression fixtures; passing a handle turns on hierarchical span tracing
(:mod:`repro.obs.trace`) and metric publication (:mod:`repro.obs.metrics`).
Profiled key wrappers (:mod:`repro.obs.profile`) are separately opt-in.

See OBSERVABILITY.md for the span model and the canonical metric names.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.obs.analyze import (
    PHASES,
    PhaseBreakdown,
    QueueDelaySummary,
    analyze_serve_report,
    attribute_phases,
    attribute_phases_by_protocol,
    classify_phase,
    critical_path,
    estimate_modmuls,
    normalized_ops,
    queue_delay_summary,
    render_attribution,
    self_ticks,
)
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.obs.profile import (
    KeyProfiler,
    OpProfile,
    ProfiledPrivateKey,
    ProfiledPublicKey,
    pow_mul_estimate,
    profile_keypair,
)
from repro.obs.series import (
    LEDGER_SCHEMA_VERSION,
    LedgerRecord,
    MetricDelta,
    MetricSpec,
    RunLedger,
    classify_metric,
    compare_metrics,
    config_digest,
    parse_ledger_jsonl,
    records_from_text,
)
from repro.obs.trace import (
    Span,
    Tracer,
    merge_span_groups,
    parse_jsonl,
    render_span_tree,
    slowest_path,
    validate_spans,
)


@dataclass
class Observability:
    """One tracer plus one metrics registry, threaded through a run."""

    tracer: Tracer = field(default_factory=Tracer)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)

    def span(self, name: str, **attrs):
        """Open a span on the tracer (a context manager yielding it)."""
        return self.tracer.span(name, **attrs)

    def count(self, name: str, amount: float = 1) -> None:
        """Increment the named counter."""
        self.metrics.counter(name).inc(amount)

    def snapshot(self) -> MetricsSnapshot:
        """Freeze the metrics registry into an immutable snapshot."""
        return self.metrics.snapshot()


#: A shared inert context manager — ``maybe_span`` with ``obs=None``.
_NULL_CONTEXT = nullcontext(None)


def maybe_span(obs: Observability | None, name: str, **attrs):
    """A span if observability is on, an inert context manager if not.

    Instrumented code writes ``with maybe_span(obs, "x") as span:`` and
    guards attribute writes with ``if span is not None`` — zero allocations
    and no tracer state when ``obs`` is None.
    """
    if obs is None:
        return _NULL_CONTEXT
    return obs.span(name, **attrs)


__all__ = [
    "DEFAULT_BUCKETS",
    "LEDGER_SCHEMA_VERSION",
    "PHASES",
    "Counter",
    "Gauge",
    "Histogram",
    "KeyProfiler",
    "LedgerRecord",
    "MetricDelta",
    "MetricSpec",
    "MetricsRegistry",
    "MetricsSnapshot",
    "Observability",
    "OpProfile",
    "PhaseBreakdown",
    "ProfiledPrivateKey",
    "ProfiledPublicKey",
    "QueueDelaySummary",
    "RunLedger",
    "Span",
    "Tracer",
    "analyze_serve_report",
    "attribute_phases",
    "attribute_phases_by_protocol",
    "classify_metric",
    "classify_phase",
    "compare_metrics",
    "config_digest",
    "critical_path",
    "estimate_modmuls",
    "maybe_span",
    "merge_span_groups",
    "normalized_ops",
    "parse_jsonl",
    "parse_ledger_jsonl",
    "pow_mul_estimate",
    "profile_keypair",
    "queue_delay_summary",
    "records_from_text",
    "render_attribution",
    "render_span_tree",
    "self_ticks",
    "slowest_path",
    "validate_spans",
]
