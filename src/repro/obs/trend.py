"""Trend analytics over the run ledger: changepoints, bands, sparklines.

Two regimes, matching the ledger's metric taxonomy
(:func:`repro.obs.series.classify_metric`):

- **exact** counters are deterministic functions of the seeded workload,
  so the detector is zero-tolerance: *any* step between consecutive
  ledger records is a changepoint, attributed to the first commit where
  the value moved, with that run's phase breakdown attached so the
  verdict says not just *when* but *what the run was doing*;
- **timing** metrics are host-noise-prone, so each point is judged
  against a rolling-median ± 3·MAD tolerance band over its trailing
  window — outliers are informational, never a gate failure.

A regressed exact step fails ``repro trend --check`` unless the record
that introduced it lists the metric in its ``accepted`` note.  Records
are compared within one *lineage* (same ``config_digest`` and key
size): a workload change is a different experiment, not a regression.
Every lineage of every suite is checked and rendered.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import median
from typing import Iterable, Mapping, Sequence

from repro.obs.series import (
    LedgerRecord,
    RunLedger,
    classify_metric,
    compare_metrics,
    sort_records,
)

#: Eight-level unicode bars, min-to-max normalized per series.
SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: Consistency-scale factor turning a MAD into a robust sigma estimate.
_MAD_SIGMA = 1.4826


def sparkline(values: Sequence[float]) -> str:
    """A unicode sparkline of the series (constant series render flat)."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi == lo:
        return SPARK_CHARS[3] * len(values)
    top = len(SPARK_CHARS) - 1
    return "".join(
        SPARK_CHARS[round((value - lo) / (hi - lo) * top)] for value in values
    )


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


def _phase_label(phases: Mapping[str, int] | None) -> str | None:
    """``"crypto (62% of traced ticks)"`` for the dominant phase, or None."""
    if not phases:
        return None
    total = sum(phases.values())
    if total <= 0:
        return None
    name, ticks = max(sorted(phases.items()), key=lambda item: item[1])
    return f"{name} ({ticks / total:.0%} of traced ticks)"


@dataclass(frozen=True)
class Changepoint:
    """One exact counter stepping between consecutive ledger records."""

    suite: str
    metric: str
    direction: str  # lower | higher | fixed
    status: str  # regressed | improved
    prev_value: float
    value: float
    prev_sha: str
    git_sha: str  # first commit where the value moved
    seq: int
    accepted: bool
    phases: dict[str, int] | None

    @property
    def phase(self) -> str | None:
        """The offending run's dominant phase, human-rendered."""
        return _phase_label(self.phases)

    def describe(self) -> str:
        delta = self.value - self.prev_value
        parts = [
            f"{self.metric} {_fmt(self.prev_value)} -> {_fmt(self.value)} "
            f"({delta:+.6g}) first {'bad' if self.status == 'regressed' else 'good'} "
            f"commit `{self.git_sha[:12]}`"
        ]
        if self.phase is not None:
            parts.append(f"— phase {self.phase}")
        if self.accepted:
            parts.append("[accepted]")
        return " ".join(parts)


@dataclass(frozen=True)
class TimingFlag:
    """One timing metric landing outside its rolling tolerance band."""

    suite: str
    metric: str
    git_sha: str
    seq: int
    value: float
    median: float
    band: float


def lineages(
    records: Iterable[LedgerRecord],
) -> dict[tuple[str, int | None], list[LedgerRecord]]:
    """Records grouped by ``(config_digest, keysize)``, each in append order."""
    grouped: dict[tuple[str, int | None], list[LedgerRecord]] = {}
    for record in sort_records(records):
        grouped.setdefault(record.lineage, []).append(record)
    return grouped


def _metric_series(
    records: Sequence[LedgerRecord], metric: str
) -> list[tuple[LedgerRecord, float]]:
    return [(r, float(r.metrics[metric])) for r in records if metric in r.metrics]


def _metric_names(records: Sequence[LedgerRecord]) -> list[str]:
    names: set[str] = set()
    for record in records:
        names.update(record.metrics)
    return sorted(names)


def detect_changepoints(
    records: Sequence[LedgerRecord], suite: str | None = None
) -> list[Changepoint]:
    """Every exact-counter step within one lineage, in series order.

    Each record is judged by :func:`compare_metrics` against the last
    value every metric it carries took before it.  Attribution is
    ordering-invariant by construction: records compare in ``seq``
    (append) order, so shuffling the ledger file's lines never moves a
    changepoint to a different commit.
    """
    ordered = sort_records(records)
    if not ordered:
        return []
    label = suite if suite is not None else ordered[0].suite
    changepoints: list[Changepoint] = []
    last: dict[str, tuple[LedgerRecord, float]] = {}
    for current in ordered:
        previous = {
            name: last[name][1] for name in current.metrics if name in last
        }
        for delta in compare_metrics(previous, current.metrics):
            if not delta.moved:
                continue
            prev = last[delta.name][0]
            changepoints.append(
                Changepoint(
                    suite=label,
                    metric=delta.name,
                    direction=delta.direction,
                    status=delta.status,
                    prev_value=delta.baseline,
                    value=delta.current,
                    prev_sha=prev.git_sha,
                    git_sha=current.git_sha,
                    seq=current.seq,
                    accepted=delta.name in current.accepted,
                    phases=current.phases,
                )
            )
        for name, value in current.metrics.items():
            last[name] = (current, float(value))
    return changepoints


def timing_flags(
    records: Sequence[LedgerRecord], window: int = 8
) -> list[TimingFlag]:
    """Timing metrics outside their rolling-median ± 3·MAD band.

    Each point is judged against the ``window`` trailing values before
    it; the first three points of a series are never flagged (no band to
    judge against).  The band floors at 10% of the rolling median so a
    near-zero MAD (identical recorded timings) does not flag ordinary
    jitter.
    """
    ordered = sort_records(records)
    flags: list[TimingFlag] = []
    for metric in _metric_names(ordered):
        if classify_metric(metric).kind != "timing":
            continue
        series = _metric_series(ordered, metric)
        values = [value for _, value in series]
        for i, (record, value) in enumerate(series):
            if i < 3:
                continue
            trailing = values[max(0, i - window) : i]
            center = median(trailing)
            mad = median(abs(v - center) for v in trailing)
            band = max(3 * _MAD_SIGMA * mad, 0.1 * max(abs(center), 1e-9))
            if abs(value - center) > band:
                flags.append(
                    TimingFlag(
                        suite=record.suite,
                        metric=metric,
                        git_sha=record.git_sha,
                        seq=record.seq,
                        value=value,
                        median=center,
                        band=band,
                    )
                )
    return flags


def best_exemplar(record: LedgerRecord) -> dict | None:
    """The slowest recorded exemplar riding in a record's obs snapshot.

    Scans the snapshot's histograms for exemplar entries (span ids
    attached to bucket observations) and returns the one from the
    highest bucket — the concrete trace behind the worst latency this
    run observed — as ``{"histogram", "bucket", "value", "span"}``.
    """
    if not record.obs:
        return None
    best: dict | None = None
    for name in sorted(record.obs.get("histograms", {})):
        histogram = record.obs["histograms"][name]
        for bucket in sorted(
            histogram.get("exemplars", {}), key=lambda b: int(b)
        ):
            entry = histogram["exemplars"][bucket]
            if best is None or entry["value"] > best["value"]:
                best = {
                    "histogram": name,
                    "bucket": int(bucket),
                    "value": entry["value"],
                    "span": entry["span"],
                }
    return best


@dataclass
class TrendCheck:
    """The full ``repro trend --check`` verdict across suites."""

    suites: list[str]
    changepoints: list[Changepoint]
    flags: list[TimingFlag]

    @property
    def unexplained(self) -> list[Changepoint]:
        """Regressed exact steps not accepted by the record that moved."""
        return [
            cp
            for cp in self.changepoints
            if cp.status == "regressed" and not cp.accepted
        ]

    @property
    def ok(self) -> bool:
        return not self.unexplained


def check_ledger(
    ledger: RunLedger,
    suites: Sequence[str] | None = None,
    window: int = 8,
) -> TrendCheck:
    """Run the changepoint and band detectors over ledger suites."""
    names = list(suites) if suites else ledger.suites()
    changepoints: list[Changepoint] = []
    flags: list[TimingFlag] = []
    for suite in names:
        for lineage in lineages(ledger.load(suite)).values():
            changepoints.extend(detect_changepoints(lineage, suite))
            flags.extend(timing_flags(lineage, window))
    return TrendCheck(suites=names, changepoints=changepoints, flags=flags)


def render_check(check: TrendCheck) -> str:
    """The terminal verdict ``repro trend --check`` prints."""
    lines = [
        f"trend check: {len(check.suites)} suite(s), "
        f"{len(check.changepoints)} exact changepoint(s), "
        f"{len(check.unexplained)} unexplained regression(s), "
        f"{len(check.flags)} timing outlier(s)"
    ]
    for cp in check.changepoints:
        marker = (
            "regressed"
            if cp.status == "regressed" and not cp.accepted
            else ("accepted " if cp.accepted else "improved ")
        )
        lines.append(f"  {cp.suite}: {marker} {cp.describe()}")
    for flag in check.flags:
        lines.append(
            f"  {flag.suite}: timing    {flag.metric} {_fmt(flag.value)} "
            f"outside {_fmt(flag.median)} ± {_fmt(flag.band)} at "
            f"`{flag.git_sha[:12]}`"
        )
    lines.append("verdict: " + ("PASS" if check.ok else "FAIL"))
    return "\n".join(lines)


def _metric_flags(
    metric: str,
    changepoints: Sequence[Changepoint],
    flags: Sequence[TimingFlag],
    records: Sequence[LedgerRecord],
) -> str:
    parts: list[str] = []
    for cp in changepoints:
        if cp.metric != metric:
            continue
        badge = "✅" if cp.status == "improved" else ("∙" if cp.accepted else "❌")
        note = f"{badge} {cp.value - cp.prev_value:+.6g} at `{cp.git_sha[:12]}`"
        if cp.status == "regressed" and cp.phase is not None:
            note += f" (phase {cp.phase.split(' ')[0]})"
        parts.append(note)
    by_seq = {record.seq: record for record in records}
    for flag in flags:
        if flag.metric != metric:
            continue
        note = f"⚠ outlier at `{flag.git_sha[:12]}`"
        exemplar = best_exemplar(by_seq[flag.seq]) if flag.seq in by_seq else None
        if exemplar is not None:
            note += (
                f", exemplar span {exemplar['span']} in "
                f"`{exemplar['histogram']}` — `repro analyze --exemplars`"
            )
        parts.append(note)
    return "; ".join(parts) if parts else "·"


def render_trends(
    ledger: RunLedger,
    suites: Sequence[str] | None = None,
    window: int = 8,
) -> str:
    """The per-suite markdown dashboard (``BENCH_TRENDS.md``)."""
    names = list(suites) if suites else ledger.suites()
    total = sum(len(ledger.load(suite)) for suite in names)
    lines = [
        "# Performance trends",
        "",
        f"Cross-commit run ledger: {len(names)} suite(s), {total} record(s) "
        "under `benchmarks/series/`.",
        "Exact counters are zero-tolerance — any step is flagged and "
        "attributed to the first commit where the value moved, with that "
        "run's phase breakdown.  Timing metrics are judged against a "
        f"rolling-median ± 3·MAD band over the trailing {window} records.",
        "",
        "One section per suite, one table per lineage (records sharing a "
        "workload config and key size); each lineage's last record is its "
        "baseline.  Maintained by `repro trend --report`; appended to by "
        "`repro perf-check --record`, the bench sentinel and "
        "`repro trend --append`.",
    ]
    for suite in names:
        grouped = lineages(ledger.load(suite))
        if grouped:
            lines += ["", f"## `{suite}`"]
        for (digest, keysize), lineage in grouped.items():
            changepoints = detect_changepoints(lineage, suite)
            flags = timing_flags(lineage, window)
            lines += [
                "",
                f"{len(lineage)} record(s) · commits "
                f"`{lineage[0].git_sha[:12]}` → `{lineage[-1].git_sha[:12]}` · "
                f"config `{digest}` · keysize {keysize or '—'}",
                "",
                "| metric | kind | trend | first | latest | Δ | flags |",
                "|---|---|---|---:|---:|---:|---|",
            ]
            for metric in _metric_names(lineage):
                values = [value for _, value in _metric_series(lineage, metric)]
                delta = values[-1] - values[0]
                lines.append(
                    f"| `{metric}` | {classify_metric(metric).kind} "
                    f"| {sparkline(values)} | {_fmt(values[0])} "
                    f"| {_fmt(values[-1])} | {delta:+.6g} "
                    f"| {_metric_flags(metric, changepoints, flags, lineage)} |"
                )
    lines.append("")
    return "\n".join(lines)
