"""A process-local metrics registry: counters, gauges, fixed-bucket histograms.

Zero dependencies, deterministic by construction: every instrument is a
plain Python accumulator, snapshots serialize with sorted names, and
histogram buckets are fixed at creation — two runs that perform the same
operations publish byte-identical snapshots.  Wall-clock time is *never*
published here (profiling wall time lives in :mod:`repro.obs.profile` and
is excluded from snapshots by default), so a
:class:`MetricsSnapshot` can be embedded in a
:class:`~repro.serve.engine.ServingReport` without breaking its
determinism contract.

The canonical metric names the library publishes are documented in
OBSERVABILITY.md; the ``obs-smoke`` CI job fails if a documented name is
never published.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.errors import ConfigurationError

#: Default histogram bucket upper bounds (seconds-flavored, but unitless).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001,
    0.005,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    10.0,
)


@dataclass
class Counter:
    """A monotonically increasing count (int or float increments)."""

    value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ConfigurationError("counters only move forward")
        self.value += amount


@dataclass
class Gauge:
    """A point-in-time value that can move in both directions."""

    value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, amount: float) -> None:
        self.value += amount


class Histogram:
    """A fixed-bucket histogram (cumulative counts, like Prometheus).

    ``buckets`` are upper bounds; an observation lands in the first bucket
    whose bound is >= the value, or the implicit +inf overflow bucket.
    No numpy, no quantile estimation — exact counts only.
    """

    __slots__ = ("buckets", "counts", "overflow", "total", "count", "exemplars")

    def __init__(self, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        if not buckets or list(buckets) != sorted(buckets):
            raise ConfigurationError("histogram buckets must be sorted and non-empty")
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * len(self.buckets)
        self.overflow = 0
        self.total = 0.0
        self.count = 0
        # Bucket index (len(buckets) = the overflow bucket) → the worst
        # observation that landed there, as (value, exemplar span id).
        self.exemplars: dict[int, tuple[float, int]] = {}

    def _bucket_index(self, value: float) -> int:
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                return i
        return len(self.buckets)

    def observe(self, value: float, exemplar: int | None = None) -> None:
        self.count += 1
        self.total += value
        index = self._bucket_index(value)
        if index == len(self.buckets):
            self.overflow += 1
        else:
            self.counts[index] += 1
        if exemplar is not None:
            self._keep_exemplar(index, value, exemplar)

    def _keep_exemplar(self, index: int, value: float, exemplar: int) -> None:
        """Retain the bucket's worst (value, span) pair, order-invariant."""
        current = self.exemplars.get(index)
        if current is None or (value, exemplar) > current:
            self.exemplars[index] = (value, exemplar)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        data = {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "overflow": self.overflow,
            "total": round(self.total, 9),
            "count": self.count,
        }
        if self.exemplars:
            # Emitted only when populated: a histogram that never saw an
            # exemplar serializes byte-identically to every prior release.
            data["exemplars"] = {
                str(index): {
                    "value": round(self.exemplars[index][0], 9),
                    "span": self.exemplars[index][1],
                }
                for index in sorted(self.exemplars)
            }
        return data


@dataclass(frozen=True)
class MetricsSnapshot:
    """An immutable, JSON-roundtrippable dump of one registry's state."""

    counters: dict[str, float] = field(default_factory=dict)
    gauges: dict[str, float] = field(default_factory=dict)
    histograms: dict[str, dict] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {k: self.histograms[k] for k in sorted(self.histograms)},
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "MetricsSnapshot":
        return cls(
            counters=dict(data.get("counters", {})),
            gauges=dict(data.get("gauges", {})),
            histograms={k: dict(v) for k, v in data.get("histograms", {}).items()},
        )

    @property
    def names(self) -> set[str]:
        """Every metric name this snapshot carries."""
        return set(self.counters) | set(self.gauges) | set(self.histograms)


class MetricsRegistry:
    """Create-on-first-use instrument registry, one per process (or bucket).

    Serving buckets each own a registry; their snapshots merge into the
    engine's registry in bucket order.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(buckets)
        return instrument

    def snapshot(self) -> MetricsSnapshot:
        """Freeze the registry into an immutable snapshot."""
        return MetricsSnapshot(
            counters={name: c.value for name, c in self._counters.items()},
            gauges={name: g.value for name, g in self._gauges.items()},
            histograms={name: h.to_dict() for name, h in self._histograms.items()},
        )

    def merge_snapshot(self, snapshot: MetricsSnapshot) -> None:
        """Fold another registry's snapshot into this one.

        Counters and histogram counts add; gauges take the maximum (the
        merged gauge answers "how high did it get anywhere", which is the
        only cross-bucket reading that makes sense for depths).
        """
        for name, value in snapshot.counters.items():
            self.counter(name).inc(value)
        for name, value in snapshot.gauges.items():
            gauge = self.gauge(name)
            gauge.set(max(gauge.value, value))
        for name, data in snapshot.histograms.items():
            histogram = self.histogram(name, tuple(data["buckets"]))
            if list(histogram.buckets) != list(data["buckets"]):
                raise ConfigurationError(
                    f"histogram {name!r} bucket layouts differ; cannot merge"
                )
            for i, count in enumerate(data["counts"]):
                histogram.counts[i] += count
            histogram.overflow += data["overflow"]
            histogram.total += data["total"]
            histogram.count += data["count"]
            for bucket, entry in data.get("exemplars", {}).items():
                histogram._keep_exemplar(
                    int(bucket), entry["value"], entry["span"]
                )
