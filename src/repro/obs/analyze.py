"""Trace analytics: phase attribution, critical paths, SLOs, queue delay.

PR 4 made every layer *emit* telemetry; this module *consumes* it.  Four
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
- **SLO evaluation** — latency and error budgets over a
  :class:`~repro.serve.engine.ServingReport`, with burn rates, plus
  queue-delay attribution: on the simulated timeline every job's latency
  is exactly queue wait + service time, so the mean queue wait is the
  mean latency minus the count-weighted mean predicted service time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.crypto.paillier import KeyPair
from repro.errors import ConfigurationError, ReproError
from repro.obs.profile import pow_mul_estimate
from repro.obs.trace import Span, validate_spans

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


# ----------------------------------------------------------- serving SLOs


@dataclass(frozen=True)
class SLOPolicy:
    """Service-level objectives for one serving run.

    Latency budgets are in simulated seconds (``None`` disables the
    objective); ``error_budget`` is the tolerated fraction of jobs that
    may fail or be rejected; ``queue_wait_budget`` bounds the mean
    simulated queue wait.
    """

    latency_p50: float | None = None
    latency_p95: float | None = None
    latency_p99: float | None = None
    error_budget: float = 0.01
    queue_wait_budget: float | None = None

    def __post_init__(self) -> None:
        for name in ("latency_p50", "latency_p95", "latency_p99",
                     "queue_wait_budget"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ConfigurationError(f"{name} must be positive or None")
        if not 0 <= self.error_budget <= 1:
            raise ConfigurationError("error_budget must be in [0, 1]")


@dataclass(frozen=True)
class SLOResult:
    """One objective's verdict: target vs. actual, with a burn rate.

    ``burn_rate`` is ``actual / budget`` — below 1.0 the objective holds,
    at 2.0 the run consumed its budget twice over.
    """

    objective: str
    budget: float
    actual: float
    ok: bool
    burn_rate: float

    def to_dict(self) -> dict:
        """JSON form of this objective's verdict."""
        return {
            "objective": self.objective,
            "budget": self.budget,
            "actual": round(self.actual, 9),
            "ok": self.ok,
            "burn_rate": round(self.burn_rate, 9),
        }


@dataclass
class SLOReport:
    """All evaluated objectives of one run."""

    results: list[SLOResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every objective held."""
        return all(result.ok for result in self.results)

    def to_dict(self) -> dict:
        """JSON form of the whole evaluation."""
        return {"ok": self.ok, "results": [r.to_dict() for r in self.results]}

    def render(self) -> str:
        """The human-readable verdict table."""
        if not self.results:
            return "slo: no objectives configured"
        lines = ["slo evaluation:"]
        for result in self.results:
            verdict = "ok" if result.ok else "VIOLATED"
            lines.append(
                f"  {result.objective:<18} budget {result.budget:<10g} "
                f"actual {result.actual:<12.6g} burn {result.burn_rate:>6.2f}x "
                f"{verdict}"
            )
        return "\n".join(lines)


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


def evaluate_slo(report, policy: SLOPolicy) -> SLOReport:
    """Evaluate a policy against a serving report (object or dict)."""
    data = _report_dict(report)
    latency = data["latency"]
    slo = SLOReport()

    def latency_objective(name: str, budget: float | None, actual: float) -> None:
        if budget is None:
            return
        slo.results.append(
            SLOResult(
                objective=name,
                budget=budget,
                actual=actual,
                ok=actual <= budget,
                burn_rate=actual / budget,
            )
        )

    latency_objective("latency_p50", policy.latency_p50, latency["p50"])
    latency_objective("latency_p95", policy.latency_p95, latency["p95"])
    latency_objective("latency_p99", policy.latency_p99, latency["p99"])

    total = data["queries"]
    errors = data["failed"] + data["rejected"]
    error_fraction = errors / total if total else 0.0
    # A zero budget means "no errors tolerated": burn is 0 when clean,
    # infinite-flavored (count-based) when not.
    burn = (
        error_fraction / policy.error_budget
        if policy.error_budget > 0
        else float(errors)
    )
    slo.results.append(
        SLOResult(
            objective="error_fraction",
            budget=policy.error_budget,
            actual=error_fraction,
            ok=error_fraction <= policy.error_budget,
            burn_rate=burn,
        )
    )

    if policy.queue_wait_budget is not None:
        wait = queue_delay_summary(data).mean_queue_wait
        slo.results.append(
            SLOResult(
                objective="mean_queue_wait",
                budget=policy.queue_wait_budget,
                actual=wait,
                ok=wait <= policy.queue_wait_budget,
                burn_rate=wait / policy.queue_wait_budget,
            )
        )
    return slo


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


def analyze_serve_report(
    report, policy: SLOPolicy | None = None
) -> str:
    """The ``repro analyze`` rendering for one serving report.

    Sections: per-phase attribution (when the report embeds an ``obs``
    payload with spans), queue-delay attribution, per-query operation
    counts, and the SLO evaluation (when a policy is given).
    """
    data = _report_dict(report)
    sections: list[str] = []
    obs = data.get("obs")
    counters = (obs or {}).get("metrics", {}).get("counters", {})
    dropped = counters.get("obs.trace.spans_dropped", 0)
    if dropped:
        sections.append(
            f"WARNING: {int(dropped)} span(s) dropped by the trace ring "
            "buffer — attribution, critical paths, and exemplar links "
            "below describe a truncated trace; raise trace_capacity to "
            "capture the full run"
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
    if policy is not None:
        sections.append(evaluate_slo(data, policy).render())
    return "\n\n".join(sections)


def load_report_document(text: str) -> dict:
    """Extract a serving-report dict from raw JSON text.

    Accepts either a bare ``ServingReport.to_dict()`` document or a
    ``BENCH_*.json`` envelope (``{"experiment": ..., "results": ...}``)
    whose results are a report — directly, or under a ``serial`` /
    ``process`` executor key (the throughput bench records both; the
    process run is preferred as the headline configuration).
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
        for key in ("process", "serial"):
            nested = results.get(key)
            if isinstance(nested, dict):
                candidates.append(nested)
    for candidate in candidates:
        if "latency" in candidate and "queue" in candidate:
            return candidate
    raise ReproError(
        "no serving report found in document (expected to_dict() output "
        "or a BENCH_*.json envelope containing one)"
    )


def render_exemplars(report) -> str:
    """Resolve histogram exemplars into rendered span traces.

    For every histogram bucket that recorded an exemplar (the span id of
    its worst observation), looks the span up in the report's embedded
    trace and renders its subtree — the ``repro analyze --exemplars``
    view that turns "p99 regressed" into "here is the exact query that
    landed in that bucket, slowest path flagged".
    """
    from repro.obs.trace import render_span_tree

    data = _report_dict(report)
    obs = data.get("obs")
    if not obs:
        raise ReproError(
            "report embeds no obs payload; run with observability enabled "
            "(e.g. serve-bench --obs)"
        )
    histograms = obs.get("metrics", {}).get("histograms", {})
    exemplared = {
        name: hist for name, hist in histograms.items() if hist.get("exemplars")
    }
    if not exemplared:
        raise ReproError(
            "no exemplars recorded in this report; enable them with "
            "ServeConfig(exemplars=True) (they are off by default to keep "
            "reports byte-identical)"
        )
    spans = [Span.from_dict(item) for item in obs.get("spans", [])]
    by_id = {span.span_id: span for span in spans}
    children: dict[int | None, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)

    sections: list[str] = []
    for name in sorted(exemplared):
        hist = exemplared[name]
        bounds = list(hist.get("buckets", []))
        for bucket_key in sorted(hist["exemplars"], key=int):
            entry = hist["exemplars"][bucket_key]
            index = int(bucket_key)
            label = (
                f"<= {bounds[index]:g}" if index < len(bounds) else "overflow"
            )
            header = (
                f"{name} bucket {label}: worst value {entry['value']:g}, "
                f"exemplar span {entry['span']}"
            )
            root = by_id.get(entry["span"])
            if root is None:
                sections.append(
                    header + " (span missing from the trace — the ring "
                    "buffer dropped it; raise trace_capacity)"
                )
                continue
            # Render the exemplar's subtree as its own rooted forest.
            subtree = [
                Span(
                    span_id=root.span_id,
                    parent_id=None,
                    name=root.name,
                    start=root.start,
                    end=root.end,
                    attrs=dict(root.attrs),
                )
            ]
            frontier = [root.span_id]
            while frontier:
                parent = frontier.pop()
                for child in children.get(parent, []):
                    subtree.append(child)
                    frontier.append(child.span_id)
            sections.append(header + "\n" + render_span_tree(subtree))
    return "\n\n".join(sections)
