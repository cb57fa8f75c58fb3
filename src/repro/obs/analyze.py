"""Trace analytics: phase attribution, critical paths, op counts, queue delay.

Every layer *emits* telemetry; this module *consumes* it.  Four
consumers, all deterministic (they only ever read logical ticks, exact
operation counts, and the simulated serving clock — never wall time):

- **Phase attribution** — every span's *self* time (its ticks minus its
  children's) is charged to exactly one phase — ``crypto``,
  ``transport``, ``queue``, ``compute``, or ``other`` — by span-name
  prefix.  Self times partition a forest, so phase totals always sum to
  the total root duration (the invariant the property tests fuzz).
- **Critical path** — the root-to-leaf chain with the largest cumulative
  self time, found by exact dynamic programming (unlike
  :func:`~repro.obs.trace.slowest_path`, which is a greedy descent and
  can miss the true maximum).
- **Op-count normalization** — per-query operation counts and an
  analytic modular-multiplication estimate built from the same
  square-and-multiply arithmetic as :mod:`repro.obs.profile`, so cost
  comparisons are hardware-independent (the sentinel's exact counters).
- **Queue-delay attribution** over a
  :class:`~repro.serve.engine.ServingReport`: on the simulated timeline
  every job's latency is exactly queue wait + service time, so the mean
  queue wait is the mean latency minus the count-weighted mean predicted
  service time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.crypto.paillier import KeyPair
from repro.errors import ConfigurationError, ReproError, finite_real
from repro.obs.profile import pow_mul_estimate
from repro.obs.trace import Span, _span_from_line, validate_spans

#: Attribution phases, in render order.  Every span lands in exactly one.
PHASES: tuple[str, ...] = ("crypto", "transport", "queue", "compute", "other")

#: Span-name prefixes per phase, checked in order (first match wins).
#: ``uploads`` is the user->LSP upload leg, so its self time is transport;
#: ``transport.`` spans also appear in traces recorded by older releases.
_PHASE_PREFIXES: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("crypto", ("coordinator.", "crypto.")),
    ("transport", ("transport.", "uploads")),
    ("queue", ("queue.",)),
    ("compute", ("lsp.",)),
)


def classify_phase(name: str) -> str:
    """The phase a span name belongs to (``other`` when nothing matches)."""
    for phase, prefixes in _PHASE_PREFIXES:
        if name.startswith(prefixes):
            return phase
    return "other"


def self_ticks(spans: Sequence[Span]) -> dict[int, int]:
    """Each span's own logical duration: its ticks minus its children's.

    For a forest produced by a :class:`~repro.obs.trace.Tracer` this is
    never negative (children are strictly nested); hand-built forests
    with overlapping children are clamped at zero rather than allowed to
    steal time from a sibling phase.
    """
    own: dict[int, int] = {span.span_id: span.ticks for span in spans}
    for span in spans:
        if span.parent_id is not None and span.parent_id in own:
            own[span.parent_id] -= span.ticks
    return {span_id: max(0, ticks) for span_id, ticks in own.items()}


@dataclass
class PhaseBreakdown:
    """Per-phase self-tick totals of one span forest (or one subtree).

    ``total`` is the sum over all phases; for a well-formed forest it
    equals the sum of the root spans' tick durations, so attribution
    never invents or loses time.
    """

    ticks: dict[str, int] = field(default_factory=lambda: dict.fromkeys(PHASES, 0))
    by_name: dict[str, dict[str, int]] = field(default_factory=dict)

    @property
    def total(self) -> int:
        """Self-ticks across all phases."""
        return sum(self.ticks.values())

    def fraction(self, phase: str) -> float:
        """The phase's share of the total (0.0 on an empty forest)."""
        total = self.total
        return self.ticks[phase] / total if total else 0.0

    def add(self, name: str, ticks: int) -> None:
        """Charge one span's self time to its phase and name."""
        phase = classify_phase(name)
        self.ticks[phase] = self.ticks.get(phase, 0) + ticks
        names = self.by_name.setdefault(phase, {})
        names[name] = names.get(name, 0) + ticks

    def merge(self, other: "PhaseBreakdown") -> None:
        """Fold another breakdown into this one."""
        for phase, ticks in other.ticks.items():
            self.ticks[phase] = self.ticks.get(phase, 0) + ticks
        for phase, names in other.by_name.items():
            mine = self.by_name.setdefault(phase, {})
            for name, ticks in names.items():
                mine[name] = mine.get(name, 0) + ticks

    def to_dict(self) -> dict:
        """JSON form: per-phase ticks, total, and per-name detail."""
        return {
            "ticks": {phase: self.ticks[phase] for phase in sorted(self.ticks)},
            "total": self.total,
            "by_name": {
                phase: {n: names[n] for n in sorted(names)}
                for phase, names in sorted(self.by_name.items())
            },
        }


def attribute_phases(spans: Sequence[Span]) -> PhaseBreakdown:
    """Charge every span's self time to its phase, over the whole forest."""
    validate_spans(spans)
    own = self_ticks(spans)
    breakdown = PhaseBreakdown()
    for span in spans:
        breakdown.add(span.name, own[span.span_id])
    return breakdown


def _children_map(spans: Sequence[Span]) -> dict[int | None, list[Span]]:
    children: dict[int | None, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: (s.start, s.span_id))
    return children


def attribute_phases_by_protocol(
    spans: Sequence[Span],
) -> dict[str, PhaseBreakdown]:
    """One :class:`PhaseBreakdown` per protocol, keyed off ``round.*`` spans.

    A round span carries a ``protocol`` attribute
    (:func:`~repro.core.common.publish_round` stamps it); the round's
    whole subtree is attributed to that protocol.  Spans outside any
    round (engine scaffolding) are ignored here — use
    :func:`attribute_phases` for the run-wide view.
    """
    validate_spans(spans)
    own = self_ticks(spans)
    children = _children_map(spans)
    breakdowns: dict[str, PhaseBreakdown] = {}

    def charge(span: Span, breakdown: PhaseBreakdown) -> None:
        breakdown.add(span.name, own[span.span_id])
        for child in children.get(span.span_id, []):
            charge(child, breakdown)

    for span in spans:
        if span.name.startswith("round."):
            protocol = str(span.attrs.get("protocol", span.name[len("round."):]))
            charge(span, breakdowns.setdefault(protocol, PhaseBreakdown()))
    return breakdowns


def critical_path(spans: Sequence[Span]) -> tuple[list[Span], int]:
    """The root-to-leaf chain maximizing cumulative *self* ticks, exactly.

    Returns ``(path, duration)`` where ``duration`` is the sum of the
    path spans' self times — always <= the forest's total duration, since
    a path's self times are a subset of the forest's (the property the
    ``test_analyze_property`` suite fuzzes).  Dynamic programming over
    the tree, so unlike the greedy :func:`~repro.obs.trace.slowest_path`
    it cannot be lured down a heavy child whose subtree is shallow.
    """
    validate_spans(spans)
    if not spans:
        return [], 0
    own = self_ticks(spans)
    children = _children_map(spans)
    best: dict[int, int] = {}

    def solve(span: Span) -> int:
        cached = best.get(span.span_id)
        if cached is not None:
            return cached
        below = [solve(child) for child in children.get(span.span_id, [])]
        score = own[span.span_id] + (max(below) if below else 0)
        best[span.span_id] = score
        return score

    roots = children.get(None, [])
    if not roots:
        # Cyclic-free but rootless input is rejected by validate_spans
        # only when a parent id is missing entirely; an empty root set
        # here means the forest was empty after all.
        return [], 0
    cursor = max(roots, key=lambda s: (solve(s), -s.start))
    path = [cursor]
    duration = own[cursor.span_id]
    while True:
        below = children.get(cursor.span_id, [])
        if not below:
            return path, duration
        cursor = max(below, key=lambda s: (solve(s), -s.start))
        path.append(cursor)
        duration += own[cursor.span_id]


def render_attribution(spans: Sequence[Span]) -> str:
    """The per-phase attribution tree the ``repro analyze`` CLI prints.

    Every phase is listed (zero or not, so the reader sees what was
    measured), with a per-span-name breakdown underneath, the heaviest
    phase flagged with ``*``, and the exact critical path as a footer.
    """
    breakdown = attribute_phases(spans)
    total = breakdown.total
    heavy = max(PHASES, key=lambda p: breakdown.ticks.get(p, 0)) if total else None
    lines = [f"phase attribution ({total} self-ticks total)"]
    for phase in PHASES:
        ticks = breakdown.ticks.get(phase, 0)
        marker = "*" if phase == heavy and ticks else " "
        lines.append(
            f"{marker} {phase:<10} {ticks:>6} ticks  "
            f"{breakdown.fraction(phase):>6.1%}"
        )
        for name, name_ticks in sorted(
            breakdown.by_name.get(phase, {}).items(), key=lambda kv: (-kv[1], kv[0])
        ):
            lines.append(f"      {name:<28} {name_ticks:>6}")
    path, duration = critical_path(spans)
    if path:
        lines.append("")
        lines.append(
            "critical path: "
            + " -> ".join(span.name for span in path)
            + f" ({duration} self-ticks)"
        )
    return "\n".join(lines)


# --------------------------------------------------------------- op counts


def normalized_ops(
    counters: Mapping[str, float], queries: int
) -> dict[str, float]:
    """Per-query operation counts from a metrics snapshot's counters.

    Only the deterministic crypto/LSP counters are normalized; dividing
    by the completed-query count makes runs of different lengths (and the
    paper's per-query tables) directly comparable.
    """
    if queries <= 0:
        raise ConfigurationError("normalized_ops needs a positive query count")
    names = (
        "crypto.encryptions",
        "crypto.decryptions.crt",
        "crypto.decryptions.generic",
        "crypto.scalar_muls",
        "crypto.additions",
        "lsp.kgnn_queries",
    )
    return {
        name: counters.get(name, 0.0) / queries
        for name in names
        if name in counters
    }


def estimate_modmuls(counters: Mapping[str, float], keypair: KeyPair) -> dict:
    """Analytic modular-multiplication totals from exact op counters.

    Uses the same arithmetic as
    :class:`~repro.obs.profile.ProfiledPrivateKey` at level ``s=1`` (the
    level every PPGNN/naive operation and the dominant PPGNN-OPT
    operations run at).  Every counted encryption is the coordinator's, so
    it is charged as the key holder's (``encrypt.owner``): the stages of
    :meth:`~repro.crypto.paillier.PaillierPrivateKey.obfuscate` plus the
    binomial expansion and combine multiply.  A CRT decryption pays two
    half-size exponentiations with ``(p-1)`` / ``(q-1)`` exponents
    (windowed when the fast paths are on, with the odd-power tables under
    their own ``.tables`` key), a generic decryption one full-size
    exponentiation with ``lambda``.  Deterministic given the seeded key
    pair and the counters, so the sentinel treats the total as an exact
    counter — and for a pure s=1 workload it equals the profiler's
    ``bigint_muls`` ledger exactly (asserted in tests).
    """
    from repro.crypto import fastexp

    public, secret = keypair.public_key, keypair.secret_key
    bits = public.key_bits
    per_encrypt = sum(count for count, _ in secret.obfuscate_stages(1)) + 3
    if fastexp.enabled():
        plan_p, plan_q = secret.prime_plans()
        per_crt = plan_p.chain_muls + plan_q.chain_muls
        per_crt_tables = plan_p.table_muls + plan_q.table_muls
    else:
        per_crt_p, _ = pow_mul_estimate(secret.p - 1, bits)
        per_crt_q, _ = pow_mul_estimate(secret.q - 1, bits)
        per_crt = per_crt_p + per_crt_q
        per_crt_tables = 0
    per_generic, _ = pow_mul_estimate(secret.lam, 2 * bits)
    encryptions = counters.get("crypto.encryptions", 0)
    crt = counters.get("crypto.decryptions.crt", 0)
    generic = counters.get("crypto.decryptions.generic", 0)
    breakdown = {
        "encrypt.owner": int(encryptions * per_encrypt),
        "decrypt.crt": int(crt * per_crt),
        "decrypt.crt.tables": int(crt * per_crt_tables),
        "decrypt.generic": int(generic * per_generic),
    }
    breakdown["total"] = sum(breakdown.values())
    return breakdown


# ---------------------------------------------------------- serving reports


def _report_dict(report) -> dict:
    """Accept a ServingReport or its ``to_dict`` form."""
    if hasattr(report, "to_dict"):
        return report.to_dict()
    if isinstance(report, Mapping):
        return dict(report)
    raise ConfigurationError(
        "expected a ServingReport or its to_dict() mapping, got "
        f"{type(report).__name__}"
    )


@dataclass(frozen=True)
class QueueDelaySummary:
    """Where a serving run's latency went: queueing vs. service.

    On the engine's simulated timeline each job's latency is *exactly*
    queue wait plus predicted service time, so the mean queue wait is the
    mean latency minus the count-weighted mean predicted service time —
    an identity, not an approximation.
    """

    mean_latency: float
    mean_service: float
    mean_queue_wait: float
    queue_fraction: float
    max_queue_depth: int
    mean_queue_depth: float

    def to_dict(self) -> dict:
        """JSON form of the latency split."""
        return {
            "mean_latency": round(self.mean_latency, 9),
            "mean_service": round(self.mean_service, 9),
            "mean_queue_wait": round(self.mean_queue_wait, 9),
            "queue_fraction": round(self.queue_fraction, 9),
            "max_queue_depth": self.max_queue_depth,
            "mean_queue_depth": round(self.mean_queue_depth, 9),
        }

    def render(self) -> str:
        """One-line human-readable summary."""
        return (
            f"queue delay: {self.mean_queue_wait:.6g}s of "
            f"{self.mean_latency:.6g}s mean latency "
            f"({self.queue_fraction:.1%}) spent queued; "
            f"depth max {self.max_queue_depth} / "
            f"mean {self.mean_queue_depth:.2f}"
        )


def queue_delay_summary(report) -> QueueDelaySummary:
    """Split a serving report's mean latency into queue wait and service."""
    data = _report_dict(report)
    per_protocol = data.get("per_protocol", {})
    planned = sum(entry["count"] for entry in per_protocol.values())
    service = sum(
        entry["count"] * entry["mean_predicted_seconds"]
        for entry in per_protocol.values()
    )
    mean_service = service / planned if planned else 0.0
    mean_latency = data["latency"]["mean"]
    # Guard against float dust: waits are nonnegative by construction.
    mean_wait = max(0.0, mean_latency - mean_service)
    queue = data["queue"]
    return QueueDelaySummary(
        mean_latency=mean_latency,
        mean_service=mean_service,
        mean_queue_wait=mean_wait,
        queue_fraction=mean_wait / mean_latency if mean_latency else 0.0,
        max_queue_depth=queue["max_depth"],
        mean_queue_depth=queue["mean_depth"],
    )


# ------------------------------------------------------------ full report


def analyze_serve_report(report) -> str:
    """The ``repro analyze`` rendering for one serving report.

    Sections: per-phase attribution (when the report embeds an ``obs``
    payload with spans), queue-delay attribution, and per-query
    operation counts.
    """
    data = _report_dict(report)
    sections: list[str] = []
    obs = data.get("obs")
    counters = (obs or {}).get("metrics", {}).get("counters", {})
    dropped = counters.get("obs.trace.spans_dropped", 0)
    if dropped:
        sections.append(
            f"WARNING: {int(dropped)} span(s) dropped by the trace ring "
            "buffer — the attribution and critical path below describe a "
            "truncated trace (each bucket keeps its last 4096 spans)"
        )
    if obs and obs.get("spans"):
        spans = [Span.from_dict(item) for item in obs["spans"]]
        sections.append(render_attribution(spans))
    else:
        sections.append(
            "phase attribution: no spans embedded "
            "(run with obs enabled, e.g. serve-bench --obs)"
        )
    sections.append(queue_delay_summary(data).render())
    completed = data.get("completed", 0)
    if counters and completed:
        ops = normalized_ops(counters, completed)
        if ops:
            lines = [f"per-query ops ({completed} completed):"]
            for name in sorted(ops):
                lines.append(f"  {name:<28} {ops[name]:>12.2f}")
            sections.append("\n".join(lines))
    return "\n\n".join(sections)


def _report_number(report: Mapping, *path: str) -> None:
    """Raise :class:`ReproError` unless ``report[path[0]][path[1]]...`` is a
    finite number (see :func:`~repro.errors.finite_real`)."""
    name = ".".join(path)
    value: object = report
    for key in path:
        if not isinstance(value, Mapping) or key not in value:
            raise ReproError(f"serving report has no {name}")
        value = value[key]
    if not finite_real(value):
        raise ReproError(f"serving report field {name} is not a finite number: {value!r}")


def _report_object(value: object, name: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ReproError(f"serving report field {name} is not an object")
    return value


def _check_report(report: Mapping) -> None:
    """Check every field :func:`analyze_serve_report` reads."""
    for path in (("latency", "mean"), ("queue", "max_depth"), ("queue", "mean_depth")):
        _report_number(report, *path)
    for protocol in _report_object(report.get("per_protocol", {}), "per_protocol"):
        for key in ("count", "mean_predicted_seconds"):
            _report_number(report, "per_protocol", protocol, key)
    if "completed" in report:
        _report_number(report, "completed")
    if report.get("obs") is None:
        return
    obs = _report_object(report["obs"], "obs")
    metrics = _report_object(obs.get("metrics", {}), "obs.metrics")
    for name in _report_object(metrics.get("counters", {}), "obs.metrics.counters"):
        _report_number(report, "obs", "metrics", "counters", name)
    spans = obs.get("spans", [])
    if not isinstance(spans, list):
        raise ReproError("serving report field obs.spans is not a list")
    # The spans are the lines `serve-bench --trace-out` writes.
    for line_no, item in enumerate(spans, start=1):
        try:
            _span_from_line(item, line_no)
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(
                f"serving report obs.spans: trace line {line_no} does not parse: {exc}"
            ) from exc


def load_report_document(text: str) -> dict:
    """Extract a serving-report dict from raw JSON text.

    Accepts either a bare ``ServingReport.to_dict()`` document or a
    ``BENCH_*.json`` envelope (``{"experiment": ..., "results": ...}``)
    whose results are a report.  Every field the analyzer reads must be
    present and a finite number; otherwise :class:`ReproError` names it.
    """
    import json

    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ReproError(f"report does not parse as JSON: {exc}") from exc
    if not isinstance(document, dict):
        raise ReproError("report JSON must be an object")
    candidates = [document]
    results = document.get("results")
    if isinstance(results, dict):
        candidates.append(results)
    for candidate in candidates:
        if "latency" in candidate and "queue" in candidate:
            _check_report(candidate)
            return candidate
    raise ReproError(
        "no serving report found in document (expected to_dict() output "
        "or a BENCH_*.json envelope containing one)"
    )
