"""The deterministic discrete-event query-serving engine.

The engine runs in three phases:

1. **Plan** — a discrete-event simulation over the workload's arrivals:
   admission control, the bounded scheduler queue, and ``workers``
   simulated servers whose service times come from the
   :class:`~repro.serve.costs.CostModel` *prediction*, never from
   measurement.  The full timeline (start/finish per job, queue depth
   over time, rejections) is therefore a pure function of the workload
   seed and the serving configuration.
2. **Execute** — every planned job actually runs (real Paillier crypto,
   real R-tree search) through :mod:`repro.serve.pool`, bucketed by
   group, one bucket after another in this process.  The replicas'
   index is built once per engine and index kind and shared read-only
   by the cells.
3. **Report** — timeline and outcomes merge into a
   :class:`ServingReport` whose :meth:`~ServingReport.to_dict` is
   byte-identical across runs (wall-clock throughput is carried
   separately and excluded by default).

Splitting simulated time from real execution is what makes the engine
both *reproducible* (the report never depends on host load or core
count) and *honest* (answers and communication bytes come from the real
protocol stack, guards included).
"""

from __future__ import annotations

import hashlib
import heapq
import math
import time
from dataclasses import InitVar, dataclass, field, replace
from fractions import Fraction

from repro.core.config import PPGNNConfig
from repro.core.lsp import LSPServer
from repro.errors import (
    AdmissionRejectedError,
    BackpressureError,
    ConfigurationError,
    positive_int,
)
from repro.obs import MetricsRegistry, Span, merge_span_groups
from repro.serve.costs import CostModel
from repro.serve.pool import (
    BucketStats,
    JobOutcome,
    LSPSpec,
    RunnerOptions,
    execute_buckets,
)
from repro.serve.scheduler import POLICIES, make_scheduler
from repro.serve.workload import QueryJob, Workload

# Event kinds, ordered so completions free workers before same-instant
# arrivals are admitted.
_COMPLETION = 0
_ARRIVAL = 1


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one serving run.

    ``workers`` is both the simulated server count and the execution
    bucket count; the buckets run one after another in this process.
    """

    workers: int = 2
    policy: str = "fifo"
    queue_capacity: int = 64
    tenant_quota: int | None = None
    nonce_pool: bool = True
    nonce_chunk: int = 64
    knn_cache_size: int | None = 256
    guard: bool = False
    obs: bool = False
    cost_model: CostModel = field(default_factory=CostModel)
    # Index substrate override for the serving replicas (one of
    # repro.gnn.engine.INDEX_KINDS, or None to keep whatever index the
    # LSP was built with).  Every kind keeps the answers digest
    # byte-identical.
    index: str | None = None
    # Latency-histogram exemplars: record each bucket's worst observation
    # together with the span id of the job that produced it, so a flagged
    # p99 row in the trend dashboard resolves to a concrete trace
    # (`repro analyze --exemplars`).  Requires obs; off by default, and
    # off is byte-identical to every pre-exemplar release.
    exemplars: bool = False
    # Per-bucket trace ring size (None keeps the 4096-span default).
    # Evictions are published as `obs.trace.spans_dropped`.
    trace_capacity: int | None = None
    # Retired: buckets always run serially.  A checked keyword, neither
    # stored nor reported, because benchmarks/e2e/workloads.py still
    # passes executor="serial"; drop it together with that argument.
    executor: InitVar[str] = "serial"

    def __post_init__(self, executor: str) -> None:
        if executor != "serial":
            raise ConfigurationError(
                f"executor {executor!r} is retired; buckets run serially"
            )
        for name in ("workers", "queue_capacity", "nonce_chunk"):
            positive_int(getattr(self, name), name)
        for name in ("tenant_quota", "knn_cache_size"):
            if getattr(self, name) is not None:
                positive_int(getattr(self, name), name)
        if self.policy not in POLICIES:
            raise ConfigurationError(
                f"unknown policy {self.policy!r}; known: {list(POLICIES)}"
            )
        if not isinstance(self.cost_model, CostModel):
            raise ConfigurationError(
                f"cost_model must be a CostModel, not {type(self.cost_model).__name__}"
            )
        if self.exemplars and not self.obs:
            raise ConfigurationError(
                "exemplars need the observability pipeline; pass obs=True"
            )
        if self.trace_capacity is not None:
            if not self.obs:
                raise ConfigurationError(
                    "trace_capacity only applies with obs=True"
                )
            positive_int(self.trace_capacity, "trace_capacity")
        if self.index is not None:
            from repro.gnn.engine import INDEX_KINDS

            if self.index not in INDEX_KINDS:
                raise ConfigurationError(
                    f"unknown index kind {self.index!r}; known: {list(INDEX_KINDS)}"
                )

    def runner_options(self, workload_seed: int) -> RunnerOptions:
        return RunnerOptions(
            nonce_pool=self.nonce_pool,
            nonce_seed=workload_seed,
            nonce_chunk=self.nonce_chunk,
            knn_cache_size=self.knn_cache_size,
            guard=self.guard,
            obs=self.obs,
            trace_capacity=self.trace_capacity,
            exemplars=self.exemplars,
        )


@dataclass(frozen=True, slots=True)
class PlannedJob:
    """One job's simulated timeline slot."""

    job: QueryJob
    arrival: float
    start: float
    finish: float
    predicted_seconds: float

    @property
    def latency(self) -> float:
        return self.finish - self.arrival


@dataclass(frozen=True, slots=True)
class RejectedJob:
    """One admission-control rejection (typed, never silent)."""

    job_id: int
    tenant: str
    time: float
    error_type: str


def _percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation).

    The rank is ``ceil(n * fraction)`` computed *exactly* over rationals:
    the obvious float expression misranks whenever ``n * fraction`` lands
    epsilon above an integer (``100 * 0.55 == 55.000000000000007``, so a
    float ceil selects rank 56 instead of 55).  ``Fraction(str(fraction))``
    reads the decimal the caller wrote, not the nearest binary float.  The
    clamp to ``[1, n]`` covers fraction <= 0 and fraction >= 1 (p100 and
    anything epsilon beyond must select the last sample, never index n).
    """
    if not sorted_values:
        return 0.0
    n = len(sorted_values)
    exact = Fraction(n) * Fraction(str(fraction))
    rank = min(max(1, math.ceil(exact)), n)
    return sorted_values[rank - 1]


@dataclass
class ServingReport:
    """Everything one serving run produced, simulated and real.

    ``to_dict`` is the determinism contract: two runs with the same
    workload and config serialize identically.  ``wall_seconds`` (real
    elapsed execution time) and the derived ``wall_qps`` are the only
    nondeterministic fields and are excluded unless asked for.
    """

    workers: int
    policy: str
    queries: int
    completed: int
    failed: int
    rejected: int
    makespan_seconds: float
    throughput_qps: float
    latency_mean: float
    latency_p50: float
    latency_p95: float
    latency_p99: float
    max_queue_depth: int
    mean_queue_depth: float
    queue_depth_timeline: list[tuple[float, int]]
    per_protocol: dict[str, dict]
    per_tenant: dict[str, dict]
    cache: dict[str, float]
    pool: dict[str, float]
    comm_bytes_total: int
    failures: list[tuple[int, str]]
    rejections: list[RejectedJob]
    answers_digest: str
    obs: dict | None = None
    outcomes: dict[int, JobOutcome] = field(default_factory=dict, repr=False)
    wall_seconds: float = 0.0

    @property
    def wall_qps(self) -> float:
        return self.completed / self.wall_seconds if self.wall_seconds > 0 else 0.0

    def to_dict(self, include_wall: bool = False) -> dict:
        data = {
            "workers": self.workers,
            "policy": self.policy,
            "queries": self.queries,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "makespan_seconds": round(self.makespan_seconds, 9),
            "throughput_qps": round(self.throughput_qps, 9),
            "latency": {
                "mean": round(self.latency_mean, 9),
                "p50": round(self.latency_p50, 9),
                "p95": round(self.latency_p95, 9),
                "p99": round(self.latency_p99, 9),
            },
            "queue": {
                "max_depth": self.max_queue_depth,
                "mean_depth": round(self.mean_queue_depth, 9),
                "timeline": [
                    [round(t, 9), depth] for t, depth in self.queue_depth_timeline
                ],
            },
            "per_protocol": self.per_protocol,
            "per_tenant": self.per_tenant,
            "cache": self.cache,
            "pool": self.pool,
            "comm_bytes_total": self.comm_bytes_total,
            "failures": [list(item) for item in self.failures],
            "rejections": [
                [r.job_id, r.tenant, round(r.time, 9), r.error_type]
                for r in self.rejections
            ],
            "answers_digest": self.answers_digest,
        }
        if self.obs is not None:
            data["obs"] = self.obs
        if include_wall:
            data["wall_seconds"] = self.wall_seconds
            data["wall_qps"] = self.wall_qps
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ServingReport":
        """Rebuild a report from :meth:`to_dict` output.

        Lossless: ``from_dict(d).to_dict() == d`` for any ``d`` produced
        by :meth:`to_dict` (``outcomes`` is execution-local state and is
        never serialized).
        """
        latency = data["latency"]
        queue = data["queue"]
        return cls(
            workers=data["workers"],
            policy=data["policy"],
            queries=data["queries"],
            completed=data["completed"],
            failed=data["failed"],
            rejected=data["rejected"],
            makespan_seconds=data["makespan_seconds"],
            throughput_qps=data["throughput_qps"],
            latency_mean=latency["mean"],
            latency_p50=latency["p50"],
            latency_p95=latency["p95"],
            latency_p99=latency["p99"],
            max_queue_depth=queue["max_depth"],
            mean_queue_depth=queue["mean_depth"],
            queue_depth_timeline=[
                (t, depth) for t, depth in queue["timeline"]
            ],
            per_protocol=data["per_protocol"],
            per_tenant=data["per_tenant"],
            cache=data["cache"],
            pool=data["pool"],
            comm_bytes_total=data["comm_bytes_total"],
            failures=[tuple(item) for item in data["failures"]],
            rejections=[
                RejectedJob(
                    job_id=item[0],
                    tenant=item[1],
                    time=item[2],
                    error_type=item[3],
                )
                for item in data["rejections"]
            ],
            answers_digest=data["answers_digest"],
            obs=data.get("obs"),
            wall_seconds=data.get("wall_seconds", 0.0),
        )


class ServeEngine:
    """Runs workloads against one LSP under one serving configuration.

    The replica recipe and the index built from it are kept across runs
    and rebuilt only when the primary LSP's index object or ``version``
    changes, or ``serve_config.index`` names another kind.
    """

    def __init__(
        self,
        lsp: LSPServer,
        base_config: PPGNNConfig,
        serve_config: ServeConfig | None = None,
    ) -> None:
        self.lsp = lsp
        self.base_config = base_config
        self.serve_config = serve_config or ServeConfig()
        self._replica: tuple[tuple, LSPSpec] | None = None

    # ------------------------------------------------------------ phase 1

    def _predict(self, workload: Workload, job: QueryJob) -> float:
        config = (
            self.base_config
            if job.k == self.base_config.k
            else replace(self.base_config, k=job.k)
        )
        n = len(workload.group(job.group_id).locations)
        return self.serve_config.cost_model.predict_seconds(job.protocol, n, config)

    def plan(
        self, workload: Workload
    ) -> tuple[list[PlannedJob], list[RejectedJob], list[tuple[float, int]]]:
        """Simulate the full serving timeline (no crypto runs here)."""
        cfg = self.serve_config
        spec = workload.spec
        scheduler = make_scheduler(cfg.policy, cfg.queue_capacity)
        predicted = {job.job_id: self._predict(workload, job) for job in workload.jobs}

        events: list[tuple[float, int, int, QueryJob]] = []
        seq = 0
        closed = spec.arrival == "closed"
        if closed:
            initial = workload.jobs[: spec.concurrency]
            pending = list(workload.jobs[spec.concurrency :])
        else:
            initial, pending = workload.jobs, []
        for job in initial:
            heapq.heappush(events, (job.arrival_time, _ARRIVAL, seq, job))
            seq += 1

        free_workers = cfg.workers
        in_flight: dict[str, int] = {}
        planned: list[PlannedJob] = []
        rejected: list[RejectedJob] = []
        arrivals: dict[int, float] = {}
        depth_timeline: list[tuple[float, int]] = []

        def chain_next(now: float) -> None:
            """Closed loop: a freed client issues the next job after thinking."""
            nonlocal seq
            if closed and pending:
                nxt = pending.pop(0)
                heapq.heappush(
                    events, (now + spec.think_seconds, _ARRIVAL, seq, nxt)
                )
                seq += 1

        def dispatch(now: float) -> None:
            nonlocal free_workers, seq
            while free_workers > 0:
                job = scheduler.pop()
                if job is None:
                    return
                free_workers -= 1
                finish = now + predicted[job.job_id]
                planned.append(
                    PlannedJob(
                        job=job,
                        arrival=arrivals[job.job_id],
                        start=now,
                        finish=finish,
                        predicted_seconds=predicted[job.job_id],
                    )
                )
                heapq.heappush(events, (finish, _COMPLETION, seq, job))
                seq += 1

        while events:
            now, kind, _, job = heapq.heappop(events)
            if kind == _COMPLETION:
                free_workers += 1
                in_flight[job.tenant] -= 1
                chain_next(now)
            else:
                arrivals[job.job_id] = now
                count = in_flight.get(job.tenant, 0)
                try:
                    if cfg.tenant_quota is not None and count >= cfg.tenant_quota:
                        raise AdmissionRejectedError(
                            job.tenant, count, cfg.tenant_quota
                        )
                    scheduler.submit(job, predicted[job.job_id])
                except BackpressureError as exc:
                    rejected.append(
                        RejectedJob(
                            job_id=job.job_id,
                            tenant=job.tenant,
                            time=now,
                            error_type=type(exc).__name__,
                        )
                    )
                    # The client sees an immediate rejection and moves on.
                    chain_next(now)
                else:
                    in_flight[job.tenant] = count + 1
            dispatch(now)
            depth_timeline.append((now, len(scheduler)))
        planned.sort(key=lambda p: (p.start, p.job.job_id))
        return planned, rejected, depth_timeline

    # ------------------------------------------------------------ phase 2

    def execute(
        self, workload: Workload, planned: list[PlannedJob]
    ) -> tuple[dict[int, JobOutcome], BucketStats, float]:
        """Run every planned job for real, bucketed by group."""
        cfg = self.serve_config
        buckets: list[list[QueryJob]] = [[] for _ in range(cfg.workers)]
        for slot in planned:
            buckets[slot.job.group_id % cfg.workers].append(slot.job)
        started = time.perf_counter()
        outcomes, stats = execute_buckets(
            buckets,
            self._replica_spec(),
            self.base_config,
            cfg.runner_options(workload.spec.seed),
            workload.groups,
        )
        return outcomes, stats, time.perf_counter() - started

    def _replica_spec(self) -> LSPSpec:
        """The replica recipe for the primary's database and the index kind."""
        tree = self.lsp.engine.tree
        key = (tree, tree.version, self.serve_config.index)
        if self._replica is None or self._replica[0] != key:
            spec = LSPSpec.from_lsp(self.lsp)
            if self.serve_config.index is not None:
                spec = replace(spec, index=self.serve_config.index)
            self._replica = (key, spec)
        return self._replica[1]

    # ------------------------------------------------------------ phase 3

    def run(self, workload: Workload) -> ServingReport:
        """Plan, execute, and merge one workload into a serving report."""
        planned, rejected, depth_timeline = self.plan(workload)
        outcomes, stats, wall = self.execute(workload, planned)
        return self._report(
            workload, planned, rejected, depth_timeline, outcomes, stats, wall
        )

    def _report(
        self,
        workload: Workload,
        planned: list[PlannedJob],
        rejected: list[RejectedJob],
        depth_timeline: list[tuple[float, int]],
        outcomes: dict[int, JobOutcome],
        stats: BucketStats,
        wall: float,
    ) -> ServingReport:
        cfg = self.serve_config
        latencies = sorted(slot.latency for slot in planned)
        completed = [o for o in outcomes.values() if o.ok]
        failures = sorted(
            (o.job_id, o.error_type or "unknown")
            for o in outcomes.values()
            if not o.ok
        )

        per_protocol: dict[str, dict] = {}
        for slot in planned:
            outcome = outcomes.get(slot.job.job_id)
            entry = per_protocol.setdefault(
                slot.job.protocol,
                {"count": 0, "predicted_seconds": 0.0, "comm_bytes": 0},
            )
            entry["count"] += 1
            entry["predicted_seconds"] += slot.predicted_seconds
            if outcome is not None and outcome.ok:
                entry["comm_bytes"] += outcome.comm_bytes
        for entry in per_protocol.values():
            entry["mean_predicted_seconds"] = round(
                entry.pop("predicted_seconds") / entry["count"], 9
            )

        per_tenant: dict[str, dict] = {}
        for slot in planned:
            entry = per_tenant.setdefault(
                slot.job.tenant, {"completed": 0, "rejected": 0}
            )
            outcome = outcomes.get(slot.job.job_id)
            if outcome is not None and outcome.ok:
                entry["completed"] += 1
        for rejection in rejected:
            entry = per_tenant.setdefault(
                rejection.tenant, {"completed": 0, "rejected": 0}
            )
            entry["rejected"] += 1

        digest = hashlib.sha256()
        for job_id in sorted(outcomes):
            outcome = outcomes[job_id]
            entry = (
                f"{job_id}:{','.join(map(str, outcome.answer_ids))}"
                f":{outcome.comm_bytes}:{outcome.error_type}"
            )
            digest.update(entry.encode())

        makespan = max((slot.finish for slot in planned), default=0.0)
        depths = [depth for _, depth in depth_timeline]

        obs_payload = None
        if cfg.obs:
            registry = MetricsRegistry()
            if stats.metrics is not None:
                registry.merge_snapshot(stats.metrics)
            registry.counter("serve.jobs.completed").inc(len(completed))
            registry.counter("serve.jobs.failed").inc(len(failures))
            registry.counter("serve.jobs.rejected").inc(len(rejected))
            registry.gauge("serve.queue.max_depth").set(max(depths, default=0))
            # Bucket-local span ids collide across buckets; remap per group,
            # in bucket order, so the run-wide trace is deterministic.
            merged = merge_span_groups(
                [[Span.from_dict(item) for item in group] for group in stats.spans]
            )
            latency_hist = registry.histogram("serve.latency_seconds")
            if cfg.exemplars:
                # Same sorted observation order as the plain path (so the
                # histogram totals match bit for bit), but each sample
                # carries its job's merged `serve.job` span id as the
                # bucket exemplar.
                job_spans = {
                    span.attrs.get("job_id"): span.span_id
                    for span in merged
                    if span.name == "serve.job"
                }
                samples = sorted(
                    (
                        (slot.latency, job_spans.get(slot.job.job_id))
                        for slot in planned
                    ),
                    key=lambda s: (s[0], -1 if s[1] is None else s[1]),
                )
                for latency, span_id in samples:
                    latency_hist.observe(latency, exemplar=span_id)
                registry.counter("serve.exemplars.recorded").inc(
                    sum(1 for _, span_id in samples if span_id is not None)
                )
            else:
                for latency in latencies:
                    latency_hist.observe(latency)
            obs_payload = {
                "metrics": registry.snapshot().to_dict(),
                "spans": [span.to_dict() for span in merged],
            }

        return ServingReport(
            workers=cfg.workers,
            policy=cfg.policy,
            queries=len(workload.jobs),
            completed=len(completed),
            failed=len(failures),
            rejected=len(rejected),
            makespan_seconds=makespan,
            throughput_qps=len(completed) / makespan if makespan > 0 else 0.0,
            latency_mean=sum(latencies) / len(latencies) if latencies else 0.0,
            latency_p50=_percentile(latencies, 0.50),
            latency_p95=_percentile(latencies, 0.95),
            latency_p99=_percentile(latencies, 0.99),
            max_queue_depth=max(depths, default=0),
            mean_queue_depth=sum(depths) / len(depths) if depths else 0.0,
            queue_depth_timeline=depth_timeline,
            per_protocol={k: per_protocol[k] for k in sorted(per_protocol)},
            per_tenant={k: per_tenant[k] for k in sorted(per_tenant)},
            cache={
                "hits": stats.cache.hits,
                "misses": stats.cache.misses,
                "evictions": stats.cache.evictions,
                "hit_rate": round(stats.cache.hit_rate, 9),
            },
            pool={
                "precomputed": stats.pool.precomputed,
                "pooled": stats.pool.pooled,
                "dry": stats.pool.dry,
                "hit_rate": round(stats.pool.hit_rate, 9),
            },
            comm_bytes_total=sum(o.comm_bytes for o in completed),
            failures=failures,
            rejections=rejected,
            answers_digest=digest.hexdigest(),
            obs=obs_payload,
            outcomes=outcomes,
            wall_seconds=wall,
        )
