"""The serving cells: per-bucket runners over LSP replicas.

Jobs are routed to buckets by ``group_id % workers``, so every query of a
group executes in the same bucket, in planned start order.  A bucket is a
self-contained serving cell: its own LSP replica, its own session table,
its own shared nonce-pool registry and kNN result cache.  The buckets run
one after another in this process; the bucket assignment and the
within-bucket order depend only on the plan, so outcomes and cache/pool
statistics do too.

:class:`LSPSpec` is the recipe of an LSP replica (POIs, space, sanitation
knobs, index kind).  Its spatial index is built once per recipe and shared
read-only by the cells, so the serving engine, which keeps one recipe per
database version and index kind, builds it once.  Real crypto runs here —
the simulated clock of :mod:`repro.serve.engine` never consults these
timings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

from repro.core.common import group_keypair
from repro.core.config import PPGNNConfig
from repro.core.lsp import LSPServer
from repro.core.opt import optimal_omega
from repro.core.session import QuerySession
from repro.crypto.noncepool import NoncePoolRegistry, PoolStats
from repro.datasets.poi import POI
from repro.errors import ReproError
from repro.geometry.space import LocationSpace
from repro.gnn.aggregate import get_aggregate
from repro.gnn.engine import GNNQueryEngine, build_index
from repro.guard.guard import ProtocolGuard
from repro.index.base import SpatialIndex
from repro.obs import MetricsRegistry, MetricsSnapshot, Observability
from repro.partition.solver import solve_partition
from repro.serve.cache import CacheStats, KnnLRUCache
from repro.serve.workload import GroupProfile, QueryJob


@dataclass(frozen=True)
class LSPSpec:
    """Everything needed to build an equivalent LSP.

    Each :meth:`build` returns a fresh :class:`LSPServer` with its own
    index counters, kNN cache slot and sanitation RNG, over one index that
    the first call builds from the recipe and every later call shares
    read-only.  The index is not part of the recipe: equality and
    ``repr`` leave it out.
    """

    pois: tuple[POI, ...]
    space: LocationSpace
    aggregate_name: str = "sum"
    gamma: float = 0.05
    eta: float = 0.2
    phi: float = 0.1
    sanitation_samples: int | None = None
    #: Index substrate behind the replica's kGNN engine (see
    #: :data:`repro.gnn.engine.INDEX_KINDS`).
    index: str = "rtree"

    @classmethod
    def from_lsp(cls, lsp: LSPServer) -> "LSPSpec":
        return cls(
            pois=tuple(lsp.engine.pois),
            space=lsp.space,
            aggregate_name=lsp.aggregate.name,
            gamma=lsp.gamma,
            eta=lsp.eta,
            phi=lsp.phi,
            sanitation_samples=lsp.sanitation_samples,
            index=getattr(lsp.engine, "index_kind", "rtree"),
        )

    def build(self) -> LSPServer:
        engine = GNNQueryEngine(
            self.pois,
            aggregate=get_aggregate(self.aggregate_name),
            index=self.index,
            space=self.space,
            tree=self._index,
        )
        return LSPServer(
            space=self.space,
            gamma=self.gamma,
            eta=self.eta,
            phi=self.phi,
            sanitation_samples=self.sanitation_samples,
            engine=engine,
        )

    @cached_property
    def _index(self) -> SpatialIndex:
        return build_index(self.index, self.pois, self.space)


@dataclass(frozen=True)
class RunnerOptions:
    """Per-bucket execution knobs (a slice of ``ServeConfig``)."""

    nonce_pool: bool = True
    nonce_seed: int = 0
    nonce_chunk: int = 64
    knn_cache_size: int | None = 256
    guard: bool = False
    obs: bool = False


@dataclass(frozen=True, slots=True)
class JobOutcome:
    """What one executed job produced (wall-time-free).

    ``answer_ids`` and ``comm_bytes`` are the determinism-bearing fields:
    they must match a direct :class:`~repro.core.session.QuerySession` run
    of the same job byte for byte.
    """

    job_id: int
    tenant: str
    group_id: int
    protocol: str
    ok: bool
    answer_ids: tuple[int, ...] = ()
    comm_bytes: int = 0
    error_type: str | None = None
    error: str | None = None


@dataclass
class BucketStats:
    """Shared-resource counters of one bucket, merged into the report.

    When the bucket ran with observability on, ``metrics`` carries its
    registry snapshot and ``spans`` its trace as one span *group* (a tuple
    of span dicts with bucket-local ids).  Merging keeps groups separate —
    the engine remaps ids per group when it assembles the run-wide trace —
    and always happens in bucket order.
    """

    pool: PoolStats = field(default_factory=PoolStats)
    cache: CacheStats = field(default_factory=CacheStats)
    metrics: MetricsSnapshot | None = None
    spans: tuple = ()

    def merge(self, other: "BucketStats") -> None:
        self.pool.merge(other.pool)
        self.cache.merge(other.cache)
        if other.metrics is not None:
            registry = MetricsRegistry()
            if self.metrics is not None:
                registry.merge_snapshot(self.metrics)
            registry.merge_snapshot(other.metrics)
            self.metrics = registry.snapshot()
        self.spans = self.spans + other.spans


class BucketRunner:
    """Executes one bucket's jobs against one LSP replica.

    Sessions are keyed ``(group_id, protocol, k)`` — a group that issues
    the same query shape repeatedly reuses one key pair and one session,
    the amortized-setup model of :class:`QuerySession`.  All sessions of a
    bucket share the runner's nonce-pool registry (per-public-key pools)
    and its LSP-side kNN cache.
    """

    def __init__(
        self,
        lsp: LSPServer,
        base_config: PPGNNConfig,
        options: RunnerOptions,
    ) -> None:
        self.lsp = lsp
        self.base_config = base_config
        self.options = options
        self.registry = (
            NoncePoolRegistry(seed=options.nonce_seed, chunk=options.nonce_chunk)
            if options.nonce_pool
            else None
        )
        if options.knn_cache_size is not None:
            lsp.engine.set_knn_cache(KnnLRUCache(options.knn_cache_size))
        self._sessions: dict[tuple[int, str, int], QuerySession] = {}
        self.obs = Observability() if options.obs else None
        self._guard = ProtocolGuard(obs=self.obs) if options.guard else None

    # ------------------------------------------------------------- sessions

    def _session(self, job: QueryJob, config: PPGNNConfig) -> QuerySession:
        key = (job.group_id, job.protocol, job.k)
        session = self._sessions.get(key)
        if session is not None:
            return session
        session = QuerySession(
            lsp=self.lsp,
            config=config,
            protocol=job.protocol,
            seed=job.seed,
            max_history=1,
            guard=self._guard,
            obs=self.obs,
        )
        if self.registry is not None:
            keypair = group_keypair(config)
            # The bucket owns the group's key pair, so its pool refills
            # run the owner's half-width path.
            session.nonce_pool = self.registry.pool_for(
                keypair.public_key, keypair.secret_key
            )
        self._sessions[key] = session
        return session

    def _top_up_pool(self, job: QueryJob, config: PPGNNConfig, n: int) -> None:
        """Precompute exactly the factors the next round will spend."""
        keypair = group_keypair(config)
        if job.protocol == "naive":
            self.registry.ensure(keypair.public_key, config.delta, s=1)
            return
        delta_prime = solve_partition(n, config.d, config.delta).delta_prime
        if job.protocol == "ppgnn":
            self.registry.ensure(keypair.public_key, delta_prime, s=1)
        else:
            omega = optimal_omega(delta_prime)
            width = math.ceil(delta_prime / omega)
            self.registry.ensure(keypair.public_key, width, s=1)
            self.registry.ensure(keypair.public_key, omega, s=2)

    # ------------------------------------------------------------ execution

    def run_job(self, job: QueryJob, group: GroupProfile) -> JobOutcome:
        config = (
            self.base_config
            if job.k == self.base_config.k
            else replace(self.base_config, k=job.k)
        )
        session = self._session(job, config)
        if self.registry is not None:
            self._top_up_pool(job, config, len(group.locations))
        # Pin the sanitation sampler to the job seed: a repeat re-runs the
        # exact round (cache-servable), and bucket order alone decides the
        # stream.
        self.lsp.reset_rng(job.seed)
        try:
            result = session.query(group.locations, seed=job.seed)
        except ReproError as exc:
            return JobOutcome(
                job_id=job.job_id,
                tenant=job.tenant,
                group_id=job.group_id,
                protocol=job.protocol,
                ok=False,
                error_type=type(exc).__name__,
                error=str(exc),
            )
        return JobOutcome(
            job_id=job.job_id,
            tenant=job.tenant,
            group_id=job.group_id,
            protocol=job.protocol,
            ok=True,
            answer_ids=result.answer_ids,
            comm_bytes=result.report.total_comm_bytes,
        )

    def stats(self) -> BucketStats:
        stats = BucketStats()
        if self.registry is not None:
            stats.pool.merge(self.registry.stats)
        cache = self.lsp.engine.knn_cache
        if cache is not None:
            stats.cache.merge(cache.stats)
        if self.obs is not None:
            # Shared-resource counters are published once, at bucket close,
            # so repeats and evictions are already folded in.
            self.obs.count("serve.cache.hits", stats.cache.hits)
            self.obs.count("serve.cache.misses", stats.cache.misses)
            self.obs.count("serve.pool.pooled", stats.pool.pooled)
            self.obs.count("crypto.fastexp.windowed", stats.pool.windowed)
            self.obs.count("crypto.fastexp.crt_split", stats.pool.crt_split)
            self.obs.count("crypto.fastexp.fast_muls", stats.pool.fast_muls)
            self.obs.count("crypto.fastexp.dry", stats.pool.dry)
            index = self.lsp.engine.index_counters
            self.obs.count("index.queries", index.queries)
            self.obs.count("index.nodes_visited", index.nodes_visited)
            self.obs.count("index.candidates_scored", index.candidates_scored)
            if self.obs.tracer.dropped:
                # Ring-buffer evictions mean the exported trace is
                # incomplete; publish the loss so `repro analyze` can warn.
                self.obs.count(
                    "obs.trace.spans_dropped", self.obs.tracer.dropped
                )
            stats.metrics = self.obs.snapshot()
            stats.spans = (
                tuple(span.to_dict() for span in self.obs.tracer.spans()),
            )
        return stats


def execute_buckets(
    buckets: list[list[QueryJob]],
    spec: LSPSpec,
    base_config: PPGNNConfig,
    options: RunnerOptions,
    groups: tuple[GroupProfile, ...],
) -> tuple[dict[int, JobOutcome], BucketStats]:
    """Run every bucket's jobs in order on its own replica of ``spec``.

    Returns outcomes keyed by job id plus bucket stats merged in bucket
    order.
    """
    outcomes: dict[int, JobOutcome] = {}
    totals = BucketStats()
    for jobs in buckets:
        if not jobs:
            continue
        runner = BucketRunner(spec.build(), base_config, options)
        for job in jobs:
            outcomes[job.job_id] = runner.run_job(job, groups[job.group_id])
        totals.merge(runner.stats())
    return outcomes, totals
