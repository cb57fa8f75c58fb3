"""The performance sentinel: gate a run against its ledger baseline.

The repo keeps one perf store, the run ledger under
``benchmarks/series/`` (:mod:`repro.obs.series`).  A **baseline** is the
last record of a ``(suite, config_digest, keysize)`` lineage there.
:func:`gate_run` compares a fresh run against that head with the
ledger's zero-tolerance :func:`~repro.obs.series.compare_metrics`:

- **check** mode is read-only and fails on any exact-counter regression
  (timing metrics are informational);
- **record** mode appends the run as the new head, its ``accepted`` note
  naming every exact counter it moved — recording means accepting, so
  ``repro trend --check`` stays green across a deliberate re-record.

``repro perf-check`` drives it for the pinned protocol and crypto
workloads and renders the verdict as a markdown report; benchmarks opt
in per run via :class:`BenchSentinel` (``REPRO_BENCH_RECORD_BASELINE=1``
/ ``REPRO_BENCH_CHECK_BASELINE=1``).  SANNS-style evaluations track
their headline claims this way — per-phase costs against one remembered
record — instead of trusting a human to re-read text files every
release.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from repro.bench.recorder import git_sha
from repro.errors import ConfigurationError, PerfRegressionError, ReproError
from repro.obs.series import (
    TIMING_TOLERANCE,
    LedgerRecord,
    MetricDelta,
    RunLedger,
    compare_metrics,
)


@dataclass
class BaselineComparison:
    """The full verdict of one experiment against its lineage head.

    ``accepted`` names exact counters a recorded run moved on purpose;
    they never fail the verdict.
    """

    experiment: str
    deltas: list[MetricDelta]
    baseline_sha: str = "unknown"
    current_sha: str = "unknown"
    accepted: tuple[str, ...] = ()

    def _with_status(self, status: str, kind: str | None = None):
        return [
            d
            for d in self.deltas
            if d.status == status and (kind is None or d.kind == kind)
        ]

    @property
    def exact_regressions(self) -> list[MetricDelta]:
        """Regressed deterministic counters not accepted — these fail."""
        return [
            d
            for d in self._with_status("regressed", "exact")
            if d.name not in self.accepted
        ]

    @property
    def timing_regressions(self) -> list[MetricDelta]:
        """Regressed wall-clock metrics — informational only."""
        return self._with_status("regressed", "timing")

    @property
    def improved(self) -> list[MetricDelta]:
        """Metrics that moved the right way."""
        return self._with_status("improved")

    @property
    def ok(self) -> bool:
        """The gate verdict: no exact counter moved the wrong way."""
        return not self.exact_regressions


def gate_run(
    ledger: RunLedger, record: LedgerRecord, accept: bool = False
) -> BaselineComparison:
    """Compare ``record`` with its lineage head; append it if ``accept``.

    Check mode (``accept=False``) never writes: it raises
    :class:`ReproError` when the lineage has no head, and names the
    workload mismatch when the suite only holds other lineages.  Record
    mode appends ``record`` as the new head with ``accepted`` listing
    every exact counter that moved against the previous one (the first
    record of a lineage is compared with itself).
    """
    head = ledger.head(record.suite, record.lineage)
    if head is None and not accept:
        recorded = ledger.load(record.suite)
        if recorded:
            other = recorded[-1]
            raise ReproError(
                f"baseline {record.suite!r} was recorded for keysize="
                f"{other.keysize} config={other.config}, but this run uses "
                f"keysize={record.keysize} config={record.config}; matching "
                "workloads are required — re-record or adjust the flags"
            )
        raise ReproError(
            f"no baseline for {record.suite!r} under {ledger.directory} "
            "(record one with --record first)"
        )
    base = head if head is not None else record
    comparison = BaselineComparison(
        experiment=record.suite,
        deltas=compare_metrics(base.metrics, record.metrics),
        baseline_sha=base.git_sha,
        current_sha=record.git_sha,
    )
    if accept:
        comparison.accepted = tuple(
            d.name for d in comparison.deltas if d.moved
        )
        ledger.append(dataclasses.replace(record, accepted=comparison.accepted))
    return comparison


def _fmt(value: float | None) -> str:
    if value is None:
        return "—"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return f"{value:.6g}"


_STATUS_BADGE = {
    "regressed": "❌",
    "improved": "✅",
    "neutral": "·",
    "added": "＋",
    "removed": "－",
}


def render_markdown(comparisons: list[BaselineComparison]) -> str:
    """The regression report CI uploads as a job artifact."""
    lines = ["# Performance sentinel report", ""]
    overall = all(c.ok for c in comparisons)
    lines.append(
        f"**Verdict: {'PASS' if overall else 'FAIL'}** — "
        f"{len(comparisons)} experiment(s); exact counters gate, timing "
        "metrics are informational beyond their relative tolerance."
    )
    for comparison in comparisons:
        lines.append("")
        lines.append(
            f"## `{comparison.experiment}` — "
            f"{'ok' if comparison.ok else 'REGRESSED'}"
        )
        lines.append(
            f"baseline `{comparison.baseline_sha[:12]}` → current "
            f"`{comparison.current_sha[:12]}`; timing tolerance "
            f"±{TIMING_TOLERANCE:.0%}"
        )
        lines.append("")
        lines.append("| metric | kind | baseline | current | Δ | status |")
        lines.append("|---|---|---:|---:|---:|---|")
        for delta in comparison.deltas:
            change = (
                f"{delta.current - delta.baseline:+.6g}"
                if delta.baseline is not None and delta.current is not None
                else "—"
            )
            status = delta.status
            if delta.name in comparison.accepted:
                status += " (accepted)"
            badge = _STATUS_BADGE.get(delta.status, delta.status)
            lines.append(
                f"| `{delta.name}` | {delta.kind} | {_fmt(delta.baseline)} "
                f"| {_fmt(delta.current)} | {change} | {badge} {status} |"
            )
    lines.append("")
    return "\n".join(lines)


def serving_report_metrics(report_dict: Mapping) -> dict[str, float]:
    """Sentinel metrics extracted from a ``ServingReport.to_dict()``.

    Everything here except the explicitly timing-named entries is a
    deterministic function of the workload seed and serving config, so
    the comparator treats it as exact.  (Latency and makespan come from
    the *simulated* clock — also deterministic — but they are named as
    timings so a cost-model recalibration shifts them without tripping
    the zero-tolerance gate.)
    """
    cache = report_dict.get("cache", {})
    pool = report_dict.get("pool", {})
    latency = report_dict.get("latency", {})
    metrics = {
        "serve.completed": report_dict.get("completed", 0),
        "serve.failed": report_dict.get("failed", 0),
        "serve.rejected": report_dict.get("rejected", 0),
        "comm.bytes_total": report_dict.get("comm_bytes_total", 0),
        "cache.hits": cache.get("hits", 0),
        "cache.misses": cache.get("misses", 0),
        "pool.pooled": pool.get("pooled", 0),
        "latency.p95_seconds": latency.get("p95", 0.0),
        "makespan_seconds": report_dict.get("makespan_seconds", 0.0),
    }
    counters = (report_dict.get("obs") or {}).get("metrics", {}).get("counters", {})
    for name in (
        "crypto.encryptions",
        "crypto.decryptions.crt",
        "crypto.decryptions.generic",
        "crypto.scalar_muls",
        "crypto.additions",
        "lsp.kgnn_queries",
    ):
        if name in counters:
            metrics[f"ops.{name}"] = counters[name]
    return metrics


class BenchSentinel:
    """Per-run record/check switch for the ``benchmarks/`` suite.

    Disabled by default so ordinary bench runs stay gate-free; arm it via
    the environment:

    - ``REPRO_BENCH_RECORD_BASELINE=1`` — append this run as the new
      lineage head (accepting what it moved);
    - ``REPRO_BENCH_CHECK_BASELINE=1``  — compare read-only and *raise*
      :class:`~repro.errors.PerfRegressionError` on exact regressions;
    - ``REPRO_BENCH_SERIES_DIR``        — run-ledger location override.
    """

    def __init__(
        self,
        series_dir: str | Path,
        record: bool = False,
        check: bool = False,
    ) -> None:
        if record and check:
            raise ConfigurationError(
                "choose one of record/check baselines, not both"
            )
        self.ledger = RunLedger(series_dir)
        self.record = record
        self.check = check

    @classmethod
    def from_env(cls, default_dir: str | Path) -> "BenchSentinel":
        """Build from REPRO_BENCH_* variables (disarmed when unset)."""
        return cls(
            series_dir=os.environ.get("REPRO_BENCH_SERIES_DIR") or default_dir,
            record=os.environ.get("REPRO_BENCH_RECORD_BASELINE", "") == "1",
            check=os.environ.get("REPRO_BENCH_CHECK_BASELINE", "") == "1",
        )

    @property
    def armed(self) -> bool:
        """Whether this run records or checks baselines at all."""
        return self.record or self.check

    def gate(
        self,
        experiment: str,
        metrics: Mapping[str, float],
        keysize: int | None = None,
        config: Mapping | None = None,
    ) -> BaselineComparison | None:
        """Record or check one experiment's metrics, per the run mode.

        Returns the comparison against the lineage head (raising on exact
        regressions in check mode), and None when the sentinel is
        disarmed.
        """
        if not self.armed:
            return None
        record = LedgerRecord(
            suite=experiment,
            git_sha=git_sha(self.ledger.directory),
            metrics=dict(metrics),
            keysize=keysize,
            config=dict(config) if config is not None else {},
            source="sentinel",
        )
        comparison = gate_run(self.ledger, record, accept=self.record)
        if not comparison.ok:
            raise PerfRegressionError(experiment, comparison.exact_regressions)
        return comparison
