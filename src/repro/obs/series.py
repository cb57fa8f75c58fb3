"""The append-only cross-commit run ledger: the repo's one perf store.

One JSONL file per suite under ``benchmarks/series/<suite>.jsonl``; each
line is one run of that suite at one commit — exact counters, timing
summaries, the phase breakdown ``repro analyze`` would print for the run,
and (optionally) the full observability metrics snapshot.  A suite's
records split into *lineages* by workload: records sharing
``(config_digest, keysize)``.  The last record of a lineage is
its **baseline** — ``repro perf-check`` and the bench sentinel compare a
fresh run against it with :func:`compare_metrics`, and recording a run
appends it as the new head (see :mod:`repro.bench.sentinel`).

Contracts:

- **Append-only.**  Records are only ever added; a re-run at an already
  recorded ``(git_sha, config_digest, keysize)`` is an idempotent no-op
  when its exact counters match, so CI retries and local replays never
  duplicate history — and a refusal naming the stored ``seq`` when they
  do not, so a dirty-tree run can never pose as the committed one.
- **Schema-versioned.**  Every line carries ``schema_version``; foreign
  versions are refused loudly instead of being misread.
- **Ordered by ``seq``.**  Append assigns a monotone sequence number, so
  analytics (:mod:`repro.obs.trend`) are invariant to how the file's
  lines are later shuffled, merged, or partially recovered.
- **Crash-tolerant.**  :func:`parse_ledger_jsonl` follows the same error
  taxonomy as :func:`repro.obs.trace.parse_jsonl`: a truncated *last*
  line (killed run) is recoverable on request, garbage in the middle of
  the file always raises with the offending line number.
- **One comparator.**  :func:`compare_metrics` is the only rule that
  turns two metric mappings into improved / regressed verdicts; the
  sentinel gate, the trend changepoint detector and the replay check
  above all call it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from repro.errors import ReproError

#: Version of the ledger line layout; bump on breaking changes.
LEDGER_SCHEMA_VERSION = 1

#: Relative change beyond which a timing metric reads as moved.  Timing
#: verdicts are informational only: no gate fails on them.
TIMING_TOLERANCE = 0.5

#: Name fragments that mark a metric as wall-clock-flavored (noisy).
_TIMING_TOKENS = ("seconds", "latency", "qps", "wall", "speedup")

#: Name fragments where larger is better.
_HIGHER_BETTER_TOKENS = (
    "throughput",
    "qps",
    "speedup",
    "hit_rate",
    "hits",
    "completed",
    "pooled",
)

#: Name fragments where any change at all is a behavior change (answer
#: counts: the workload fixes them, so drift in either direction is a
#: correctness smell, not an optimisation).
_FIXED_TOKENS = ("answers",)


@dataclass(frozen=True)
class MetricSpec:
    """How one metric is compared: exactness and preferred direction."""

    kind: str  # "exact" | "timing"
    direction: str  # "lower" | "higher" | "fixed"


def classify_metric(name: str) -> MetricSpec:
    """Comparison rules for a metric name (token-based, overridable never).

    **exact** metrics (operation counts, protocol rounds, bytes on the
    wire, modular-multiplication estimates) are deterministic functions
    of the seeded workload, so *any* change is real; **timing** metrics
    (wall seconds, qps) are host-noise-prone.
    """
    lowered = name.lower()
    kind = (
        "timing"
        if any(token in lowered for token in _TIMING_TOKENS)
        else "exact"
    )
    if any(token in lowered for token in _FIXED_TOKENS):
        direction = "fixed"
    elif any(token in lowered for token in _HIGHER_BETTER_TOKENS):
        direction = "higher"
    else:
        direction = "lower"
    return MetricSpec(kind=kind, direction=direction)


@dataclass(frozen=True)
class MetricDelta:
    """One metric's verdict against the baseline."""

    name: str
    baseline: float | None
    current: float | None
    kind: str
    direction: str
    status: str  # improved | regressed | neutral | added | removed

    @property
    def moved(self) -> bool:
        """Whether an exact counter took a different value."""
        return self.kind == "exact" and self.status in ("improved", "regressed")


def compare_metrics(
    baseline: Mapping[str, float], current: Mapping[str, float]
) -> list[MetricDelta]:
    """Classify every metric across the two runs, sorted by name.

    Exact metrics regress on any worse value (and improve on any better
    one), with zero tolerance; timing metrics only when the relative
    change exceeds :data:`TIMING_TOLERANCE`.  Metrics present on one side
    only are reported as ``added`` / ``removed`` — visible, but never a
    failure by themselves.
    """
    deltas: list[MetricDelta] = []
    for name in sorted(set(baseline) | set(current)):
        spec = classify_metric(name)
        if name not in current:
            deltas.append(
                MetricDelta(name, baseline[name], None, spec.kind,
                            spec.direction, "removed")
            )
            continue
        if name not in baseline:
            deltas.append(
                MetricDelta(name, None, current[name], spec.kind,
                            spec.direction, "added")
            )
            continue
        base, cur = float(baseline[name]), float(current[name])
        diff = cur - base
        rel = abs(diff) / abs(base) if base != 0 else 1.0
        if diff == 0:
            status = "neutral"
        elif spec.direction == "fixed":
            status = "regressed"
        elif spec.kind == "timing" and rel <= TIMING_TOLERANCE:
            status = "neutral"
        else:
            better = diff < 0 if spec.direction == "lower" else diff > 0
            status = "improved" if better else "regressed"
        deltas.append(
            MetricDelta(name, base, cur, spec.kind, spec.direction, status)
        )
    return deltas


def config_digest(config: Mapping | None) -> str:
    """A short stable digest of a workload configuration dict."""
    canonical = json.dumps(
        dict(config) if config else {}, sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


@dataclass
class LedgerRecord:
    """One suite run at one commit, as stored on a ledger line.

    ``metrics`` is the flat sentinel-style name→value mapping (exact
    counters and timing summaries); ``phases`` is the per-phase tick
    breakdown of the run's trace (the ``repro analyze`` attribution),
    carried so a later changepoint can say *which phase* the offending
    commit was spending in; ``obs`` is the full metrics snapshot dict
    (histograms included); ``accepted`` names metrics
    whose regression at this record is explained and must not fail
    ``repro trend --check`` (recording a run through the sentinel
    accepts every exact counter it moved).
    """

    suite: str
    git_sha: str
    metrics: dict[str, float]
    config_digest: str = ""
    seq: int = -1
    keysize: int | None = None
    config: dict = field(default_factory=dict)
    phases: dict[str, int] | None = None
    quality: dict[str, float] | None = None
    obs: dict | None = None
    accepted: tuple[str, ...] = ()
    source: str = "manual"
    schema_version: int = LEDGER_SCHEMA_VERSION

    def __post_init__(self) -> None:
        if not self.suite or not isinstance(self.suite, str):
            raise ReproError("ledger record needs a non-empty suite name")
        if not self.git_sha or not isinstance(self.git_sha, str):
            raise ReproError("ledger record needs a non-empty git_sha")
        if not self.config_digest:
            self.config_digest = config_digest(self.config)
        self.accepted = tuple(self.accepted)
        for name, value in self.metrics.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ReproError(
                    f"ledger metric {name!r} must be numeric, got {value!r}"
                )

    @property
    def lineage(self) -> tuple[str, int | None]:
        """The workload this run measured: ``(config_digest, keysize)``."""
        return self.config_digest, self.keysize

    def to_dict(self) -> dict:
        data = {
            "schema_version": self.schema_version,
            "suite": self.suite,
            "git_sha": self.git_sha,
            "config_digest": self.config_digest,
            "seq": self.seq,
            "keysize": self.keysize,
            "config": {k: self.config[k] for k in sorted(self.config)},
            "metrics": {k: self.metrics[k] for k in sorted(self.metrics)},
            "source": self.source,
        }
        if self.phases is not None:
            data["phases"] = {k: self.phases[k] for k in sorted(self.phases)}
        if self.quality is not None:
            data["quality"] = {k: self.quality[k] for k in sorted(self.quality)}
        if self.obs is not None:
            data["obs"] = self.obs
        if self.accepted:
            data["accepted"] = sorted(self.accepted)
        return data

    @classmethod
    def from_dict(cls, data: Mapping) -> "LedgerRecord":
        try:
            return cls(
                suite=data["suite"],
                git_sha=data["git_sha"],
                metrics=dict(data["metrics"]),
                config_digest=data.get("config_digest", ""),
                seq=data.get("seq", -1),
                keysize=data.get("keysize"),
                config=dict(data.get("config", {})),
                phases=dict(data["phases"]) if data.get("phases") else None,
                quality=dict(data["quality"]) if data.get("quality") else None,
                obs=data.get("obs"),
                accepted=tuple(data.get("accepted", ())),
                source=data.get("source", "manual"),
                schema_version=data.get("schema_version", 0),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ReproError(f"malformed ledger record: {exc}") from exc


def _record_from_line(data: object, line_no: int) -> LedgerRecord:
    """One decoded JSONL line → a schema-checked :class:`LedgerRecord`."""
    if not isinstance(data, dict):
        raise ReproError(
            f"ledger line {line_no} is valid JSON but not a record object "
            f"(got {type(data).__name__}); was this file written by "
            "interleaved processes?"
        )
    record = LedgerRecord.from_dict(data)
    if record.schema_version != LEDGER_SCHEMA_VERSION:
        raise ReproError(
            f"ledger line {line_no} has schema v{record.schema_version}, "
            f"this library reads v{LEDGER_SCHEMA_VERSION}; convert or "
            "re-append it"
        )
    if not isinstance(record.seq, int) or isinstance(record.seq, bool):
        raise ReproError(
            f"ledger line {line_no} field 'seq' must be an integer, "
            f"got {record.seq!r}"
        )
    return record


def parse_ledger_jsonl(
    text: str, allow_truncated_tail: bool = False
) -> list[LedgerRecord]:
    """Inverse of the ledger's line format (blank lines ignored).

    A killed append can leave a *partial last line* behind; that line
    does not decode, and the error says so explicitly instead of a
    generic parse failure.  With ``allow_truncated_tail=True`` the
    partial tail is dropped and the intact prefix is returned — the same
    recovery taxonomy as :func:`repro.obs.trace.parse_jsonl`.
    Truncation forgiveness only ever applies to the final non-blank
    line; garbage in the middle of the file always raises.
    """
    records: list[LedgerRecord] = []
    lines = text.splitlines()
    last_line_no = max(
        (i for i, line in enumerate(lines, start=1) if line.strip()), default=0
    )
    for line_no, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            if line_no == last_line_no:
                if allow_truncated_tail:
                    break
                raise ReproError(
                    f"ledger line {line_no} (the last line) is truncated — "
                    "likely a killed append; re-run with --allow-truncated "
                    f"to keep the intact prefix ({exc})"
                ) from exc
            raise ReproError(
                f"ledger line {line_no} does not parse: {exc}"
            ) from exc
        records.append(_record_from_line(data, line_no))
    return records


def sort_records(records: Iterable[LedgerRecord]) -> list[LedgerRecord]:
    """Records in append order, regardless of file-line order."""
    return sorted(records, key=lambda r: (r.seq, r.git_sha, r.config_digest))


class RunLedger:
    """``benchmarks/series/`` as an append-only per-suite database."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)

    def path(self, suite: str) -> Path:
        """Where the suite's ledger file lives."""
        return self.directory / f"{suite}.jsonl"

    def suites(self) -> list[str]:
        """Every suite with at least one ledger line, sorted."""
        if not self.directory.is_dir():
            return []
        return sorted(p.stem for p in self.directory.glob("*.jsonl"))

    def load(
        self, suite: str, allow_truncated_tail: bool = False
    ) -> list[LedgerRecord]:
        """All of one suite's records, in append (``seq``) order."""
        path = self.path(suite)
        if not path.is_file():
            return []
        return sort_records(
            parse_ledger_jsonl(
                path.read_text(encoding="utf-8"),
                allow_truncated_tail=allow_truncated_tail,
            )
        )

    def head(
        self, suite: str, lineage: tuple[str, int | None]
    ) -> LedgerRecord | None:
        """The baseline of one lineage: its last record, or None."""
        for record in reversed(self.load(suite)):
            if record.lineage == lineage:
                return record
        return None

    def append(
        self, record: LedgerRecord, allow_truncated_tail: bool = False
    ) -> tuple[LedgerRecord, bool]:
        """Append one record; returns ``(stored_record, appended)``.

        Idempotent: a record whose ``(git_sha, config_digest, keysize)``
        already exists in the suite's file with the same exact counters
        is *not* re-appended — the existing record is returned with
        ``appended=False`` (timing metrics may differ).  Different exact
        counters at the same commit and workload raise
        :class:`ReproError` naming the stored record's ``seq``.  A fresh
        record gets the next sequence number, so attribution order is
        decided at append time, never by later file-line order.
        """
        existing = self.load(record.suite, allow_truncated_tail)
        for prior in existing:
            if (prior.git_sha, prior.lineage) != (record.git_sha, record.lineage):
                continue
            moved = [
                delta.name
                for delta in compare_metrics(prior.metrics, record.metrics)
                if delta.kind == "exact" and delta.status != "neutral"
            ]
            if moved:
                raise ReproError(
                    f"{record.suite} seq {prior.seq} already records commit "
                    f"{record.git_sha[:12]} for config {record.config_digest} "
                    f"keysize={record.keysize}, with different exact counters "
                    f"({', '.join(moved)}); commit the change before "
                    "recording it"
                )
            return prior, False
        stored = LedgerRecord.from_dict(record.to_dict())
        stored.schema_version = LEDGER_SCHEMA_VERSION
        stored.seq = max((r.seq for r in existing), default=-1) + 1
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.path(record.suite)
        if allow_truncated_tail and path.is_file():
            # Heal a killed append before writing: drop the partial last
            # line (it never became a record) so the file parses strictly
            # again afterwards.  Intact lines keep their original bytes.
            lines = path.read_text(encoding="utf-8").splitlines()
            while lines and not lines[-1].strip():
                lines.pop()
            if lines:
                try:
                    json.loads(lines[-1])
                except json.JSONDecodeError:
                    lines.pop()
            path.write_text(
                "".join(line + "\n" for line in lines), encoding="utf-8"
            )
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(stored.to_dict(), sort_keys=True) + "\n")
        return stored, True


# --------------------------------------------------------------- converters


def _flatten_numeric(data: Mapping, prefix: str = "", depth: int = 3) -> dict:
    """Dotted numeric leaves of a nested result dict (lists skipped)."""
    flat: dict[str, float] = {}
    for key in sorted(data):
        value = data[key]
        name = f"{prefix}{key}"
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            flat[name] = value
        elif isinstance(value, Mapping) and depth > 1:
            flat.update(_flatten_numeric(value, f"{name}.", depth - 1))
    return flat


def record_from_bench_document(data: Mapping) -> LedgerRecord:
    """A ledger record converted from a ``BENCH_<experiment>.json`` file.

    A serving report (``results`` holding ``latency`` and ``queue``)
    distills through the sentinel's ``serving_report_metrics``; anything
    else contributes its numeric leaves.  The document's observability
    snapshot (when the run was traced) rides along whole.
    """
    from repro.bench.sentinel import serving_report_metrics

    try:
        results = data.get("results", {})
        if not isinstance(results, Mapping):
            metrics = {}
        elif "latency" in results and "queue" in results:
            metrics = serving_report_metrics(results)
        else:
            metrics = _flatten_numeric(results)
        return LedgerRecord(
            suite=data["experiment"],
            git_sha=data.get("git_sha", "unknown"),
            metrics=metrics,
            keysize=data.get("keysize"),
            config=dict(data.get("config", {})),
            obs=data.get("metrics"),
            source="bench",
        )
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ReproError(f"malformed bench document: {exc}") from exc


def records_from_text(text: str) -> list[LedgerRecord]:
    """Parse an appendable document into ledger records.

    Accepts a ``BENCH_*.json`` document, one ledger record as JSON, or a
    raw JSONL ledger fragment; raises :class:`ReproError` on anything
    else.
    """
    if not text.lstrip().startswith("{"):
        raise ReproError(
            "not an appendable document: expected a BENCH_*.json document "
            "or ledger JSONL"
        )
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        # Not one JSON document — maybe a JSONL ledger fragment.
        return parse_ledger_jsonl(text)
    if "results" in data:
        return [record_from_bench_document(data)]
    if "suite" in data and "metrics" in data:
        return [LedgerRecord.from_dict(data)]
    raise ReproError(
        "JSON document carries neither a bench payload ('results') nor a "
        "ledger record ('suite' + 'metrics'); nothing to append"
    )
