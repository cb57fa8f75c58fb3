"""The per-cell scatter–gather executor: failover, hedging, quorum.

One :class:`ClusterRunner` lives inside one serving-cell (bucket): it
partitions the cell's database into shard LSPs, and for every job
scatters one full encrypted protocol round per shard, gathers the local
top-k answers, and merges them (:mod:`repro.cluster.merge`).  Each
sub-query rides its own per-shard-replica session — a real
:class:`~repro.core.session.QuerySession` (or
:class:`~repro.transport.session.ResilientSession` when message-level
faults are on), so transport retries, guards, and nonce pools behave
exactly as in the single-LSP path.

Robustness semantics, all on the deterministic simulated clock:

- **Failover** — a replica that is scripted-dead, flapping, or whose
  channel died (:class:`~repro.errors.ShardLostError` /
  :class:`~repro.errors.RetryExhaustedError`) is abandoned and the next
  replica on the consistent-hash preference list is tried, after an
  exponentially growing simulated backoff.  Attempts stop when the
  scatter's deadline budget is spent (deadline-aware backoff).
- **Hedging** — a sub-query whose simulated duration exceeds
  ``hedge_factor`` times the cost-model prediction is re-issued to the
  next live replica; the faster copy wins.  Replicas hold identical data
  and the protocol is deterministic under a fixed seed, so both copies
  decode to the same answer — the library executes the crypto once and
  accounts the race on the simulated clock.
- **Quorum** — shards with no serving replica are *lost*; if the covered
  POI fraction stays at or above the quorum the job degrades to a typed
  :class:`~repro.cluster.merge.PartialAnswer`, otherwise it fails with
  :class:`~repro.errors.ShardLostError`.  Either way, no silently wrong
  full answer can be produced: the merge only ever claims the shards
  that actually responded.

A mid-scatter :class:`ScatterState` (progress plus the shard-fault
interpreter state) freezes into checkpoint bytes via
:func:`repro.guard.checkpoint.checkpoint_scatter`, and a fresh cell can
resume it to a digest-identical completion.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from repro.cluster.config import ClusterConfig
from repro.cluster.faults import ShardFaultState
from repro.cluster.merge import (
    PartialAnswer,
    ShardAnswer,
    merge_answers,
)
from repro.cluster.routing import HashRing
from repro.cluster.topology import ClusterTopology
from repro.core.config import PPGNNConfig
from repro.core.lsp import LSPServer
from repro.core.session import QuerySession
from repro.errors import (
    ConfigurationError,
    ProtocolError,
    RetryExhaustedError,
    ShardLostError,
)
from repro.metrics.quality import estimate_partial_quality
from repro.obs import Observability, maybe_span
from repro.serve.cache import CacheStats, KnnLRUCache
from repro.serve.workload import GroupProfile, QueryJob
from repro.transport.channel import FaultyChannel
from repro.transport.session import ResilientSession

_PROTOCOL_INDEX = {"ppgnn": 0, "ppgnn-opt": 1, "naive": 2}


@dataclass
class ClusterStats:
    """Per-cell cluster counters, merged into the serving report.

    Merging always happens in bucket order (like
    :class:`~repro.serve.pool.BucketStats`), so the serial and
    multiprocessing executors report identical cluster sections.
    """

    subqueries: int = 0
    failovers: int = 0
    hedges: int = 0
    hedge_wins: int = 0
    partial_answers: int = 0
    shards_lost: int = 0
    per_shard_subqueries: dict[int, int] = field(default_factory=dict)
    per_shard_seconds: dict[int, float] = field(default_factory=dict)

    def merge(self, other: "ClusterStats") -> None:
        self.subqueries += other.subqueries
        self.failovers += other.failovers
        self.hedges += other.hedges
        self.hedge_wins += other.hedge_wins
        self.partial_answers += other.partial_answers
        self.shards_lost += other.shards_lost
        for shard, count in other.per_shard_subqueries.items():
            self.per_shard_subqueries[shard] = (
                self.per_shard_subqueries.get(shard, 0) + count
            )
        for shard, seconds in other.per_shard_seconds.items():
            self.per_shard_seconds[shard] = (
                self.per_shard_seconds.get(shard, 0.0) + seconds
            )

    def load_imbalance(self) -> float:
        """Max over mean per-shard sub-query load (1.0 = perfectly even)."""
        if not self.per_shard_subqueries:
            return 0.0
        counts = list(self.per_shard_subqueries.values())
        mean = sum(counts) / len(counts)
        return max(counts) / mean if mean > 0 else 0.0


@dataclass
class ScatterState:
    """Mid-flight progress of one job's scatter (checkpointable).

    Carries both the job progress (which shards answered with what,
    which are pending, which are lost) and the shard-fault interpreter
    snapshot, so a restored run replays the exact failure schedule an
    uninterrupted one would have seen.
    """

    job_id: int
    pending: list[int]
    answers: list[ShardAnswer] = field(default_factory=list)
    lost: list[int] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    fault_served: dict[tuple[int, int], int] = field(default_factory=dict)
    fault_sequence: int = 0

    @property
    def done(self) -> bool:
        return not self.pending


@dataclass(frozen=True, slots=True)
class ScatterOutcome:
    """What one scattered job produced, full or degraded."""

    answer_ids: tuple[int, ...]
    comm_bytes: int
    partial: bool
    coverage: float
    lost_shards: tuple[int, ...]
    expected_recall: float
    failovers: int
    hedges: int
    hedge_wins: int
    partial_answer: PartialAnswer | None = None


class ClusterRunner:
    """Scatter–gather over one cell's shard LSPs (see module docstring)."""

    def __init__(
        self,
        lsp: LSPServer,
        base_config: PPGNNConfig,
        cluster: ClusterConfig,
        *,
        transport_faults=None,
        guard=None,
        obs: Observability | None = None,
        registry=None,
        top_up: Callable | None = None,
        deadline_seconds: float | None = None,
        knn_cache_size: int | None = None,
    ) -> None:
        if base_config.sanitize:
            raise ConfigurationError(
                "the scatter–gather merge needs unsanitized per-shard "
                "answers; run the cluster with sanitize=False (PPGNN-NAS)"
            )
        self.cluster = cluster
        self.base_config = base_config
        self.topology = ClusterTopology.build(lsp.engine.pois, cluster)
        self.poi_map = self.topology.poi_map()
        self.aggregate = lsp.aggregate
        self.ring = HashRing(
            cluster.shards, cluster.replicas, cluster.virtual_nodes
        )
        # Shards inherit the cell's index substrate.
        index = getattr(lsp.engine, "index_kind", "rtree")
        self.shard_lsps = [
            LSPServer(
                pois=list(cell),
                space=lsp.space,
                aggregate_name=lsp.aggregate.name,
                gamma=lsp.gamma,
                eta=lsp.eta,
                phi=lsp.phi,
                sanitation_samples=lsp.sanitation_samples,
                index=index,
            )
            for cell in self.topology.shard_pois
        ]
        if knn_cache_size is not None:
            for shard_lsp in self.shard_lsps:
                shard_lsp.engine.set_knn_cache(KnnLRUCache(knn_cache_size))
        self.transport_faults = transport_faults
        self.guard = guard
        self.obs = obs
        self.registry = registry
        self.top_up = top_up
        self.deadline_seconds = deadline_seconds
        self.fault_state = ShardFaultState(plan=cluster.faults)
        self.stats = ClusterStats()
        self._sessions: dict[tuple[int, str, int, int, int], QuerySession] = {}

    # ------------------------------------------------------------- sessions

    def _session(
        self, job: QueryJob, config: PPGNNConfig, shard: int, replica: int
    ) -> QuerySession:
        key = (job.group_id, job.protocol, job.k, shard, replica)
        session = self._sessions.get(key)
        if session is not None:
            return session
        kwargs = dict(
            lsp=self.shard_lsps[shard],
            config=config,
            protocol=job.protocol,
            seed=job.seed,
            max_history=1,
            guard=self.guard,
            obs=self.obs,
        )
        if self.transport_faults is not None:
            # Same derivation as the single-LSP path, plus the shard and
            # replica identity — each replica channel misbehaves on its
            # own independent, replayable schedule.
            plan = replace(
                self.transport_faults,
                seed=self.transport_faults.seed * 7919
                + job.group_id * 31
                + _PROTOCOL_INDEX[job.protocol] * 7
                + job.k
                + (shard + 1) * 1_000_003
                + (replica + 1) * 101,
            )
            session = ResilientSession(channel=FaultyChannel(plan), **kwargs)
        else:
            session = QuerySession(**kwargs)
        if self.registry is not None:
            from repro.core.common import group_keypair

            keypair = group_keypair(config)
            # As in the single-LSP bucket: the cell owns the group's key
            # pair, so its pool refills run the owner's half-width path.
            session.nonce_pool = self.registry.pool_for(
                keypair.public_key, keypair.secret_key
            )
        self._sessions[key] = session
        return session

    def _job_config(self, job: QueryJob) -> PPGNNConfig:
        if job.k == self.base_config.k:
            return self.base_config
        return replace(self.base_config, k=job.k)

    # ------------------------------------------------------------ scatter

    def begin(self, job: QueryJob) -> ScatterState:
        """Open one job's scatter over all shards, in shard order."""
        return ScatterState(
            job_id=job.job_id, pending=list(range(self.topology.shards))
        )

    def _predicted(self, job: QueryJob, group: GroupProfile) -> float:
        return self.cluster.cost_model.predict_seconds(
            job.protocol, len(group.locations), self._job_config(job)
        )

    def _duration(
        self, job: QueryJob, shard: int, replica: int, predicted: float
    ) -> float:
        factor = self.fault_state.service_factor(shard, replica)
        jitter = 0.0
        if self.cluster.faults is not None:
            jitter = self.cluster.faults.jitter(job.job_id, shard, replica)
        return predicted * factor + jitter

    def _next_live_replica(
        self, preference: tuple[int, ...], after: int, shard: int, seq: int
    ) -> int | None:
        index = preference.index(after)
        for replica in preference[index + 1 :]:
            if self.fault_state.available(shard, replica, seq):
                return replica
        return None

    def step(self, state: ScatterState, job: QueryJob, group: GroupProfile) -> None:
        """Serve the next pending shard: failover, hedging, accounting."""
        if state.done:
            raise ProtocolError("scatter already complete")
        shard = state.pending.pop(0)
        config = self._job_config(job)
        predicted = self._predicted(job, group)
        seq = self.fault_state.advance()
        state.fault_sequence = self.fault_state.sequence
        preference = self.ring.preference(job.tenant, job.group_id, shard)
        backoff = self.cluster.failover_backoff_seconds
        failovers = 0
        answer: ShardAnswer | None = None
        with maybe_span(self.obs, "cluster.shard", shard=shard) as span:
            for attempt, replica in enumerate(preference):
                if (
                    self.deadline_seconds is not None
                    and state.elapsed_seconds >= self.deadline_seconds
                ):
                    break  # deadline-aware: stop burning backoff on a lost cause
                if attempt > 0:
                    failovers += 1
                    state.elapsed_seconds += backoff * 2 ** (attempt - 1)
                if not self.fault_state.available(shard, replica, seq):
                    continue
                try:
                    answer = self._serve(
                        state, job, group, config, shard, replica, predicted, seq
                    )
                except (ShardLostError, RetryExhaustedError):
                    # Dead party or dead channel on the provider side:
                    # both cure by failover, and both consumed a timeout.
                    state.elapsed_seconds += predicted
                    continue
                break
            if answer is not None and failovers:
                answer = replace(answer, failovers=failovers)
            if span is not None and answer is not None:
                span.set(replica=answer.replica, failovers=failovers)
        self.stats.failovers += failovers
        if self.obs is not None and failovers:
            self.obs.count("cluster.failovers", failovers)
        if answer is None:
            state.lost.append(shard)
            self.stats.shards_lost += 1
            if self.obs is not None:
                self.obs.count("cluster.shards_lost")
        else:
            state.answers.append(answer)
        state.fault_served = dict(self.fault_state.served)

    def _serve(
        self,
        state: ScatterState,
        job: QueryJob,
        group: GroupProfile,
        config: PPGNNConfig,
        shard: int,
        replica: int,
        predicted: float,
        seq: int,
    ) -> ShardAnswer:
        """One real sub-query round, plus the simulated hedging race."""
        session = self._session(job, config, shard, replica)
        if self.top_up is not None:
            self.top_up(job, config, len(group.locations))
        self.shard_lsps[shard].reset_rng(job.seed)
        result = session.query(group.locations, seed=job.seed)
        duration = self._duration(job, shard, replica, predicted)
        self.fault_state.record_served(shard, replica)
        winner, hedged, hedge_won = replica, False, False
        factor = self.cluster.hedge_factor
        if factor is not None and duration > factor * predicted:
            preference = self.ring.preference(job.tenant, job.group_id, shard)
            target = self._next_live_replica(preference, replica, shard, seq)
            if target is not None:
                hedged = True
                self.stats.hedges += 1
                if self.obs is not None:
                    self.obs.count("cluster.hedges")
                rival = self._duration(job, shard, target, predicted)
                self.fault_state.record_served(shard, target)
                if rival < duration:
                    hedge_won = True
                    winner, duration = target, rival
                    self.stats.hedge_wins += 1
                    if self.obs is not None:
                        self.obs.count("cluster.hedge_wins")
        state.elapsed_seconds += duration
        self.stats.subqueries += 1
        self.stats.per_shard_subqueries[shard] = (
            self.stats.per_shard_subqueries.get(shard, 0) + 1
        )
        self.stats.per_shard_seconds[shard] = (
            self.stats.per_shard_seconds.get(shard, 0.0) + duration
        )
        if self.obs is not None:
            self.obs.count("cluster.subqueries")
        return ShardAnswer(
            shard_id=shard,
            replica=winner,
            answer_ids=result.answer_ids,
            comm_bytes=result.report.total_comm_bytes,
            simulated_seconds=duration,
            failovers=0,
            hedged=hedged,
            hedge_won=hedge_won,
        )

    # ------------------------------------------------------------- gather

    def finish(
        self, state: ScatterState, job: QueryJob, group: GroupProfile
    ) -> ScatterOutcome:
        """Merge the gathered shard answers, degrading past lost shards."""
        if not state.done:
            raise ProtocolError("scatter still has pending shards")
        lost = tuple(sorted(state.lost))
        if len(state.answers) == 0:
            raise ShardLostError(
                f"lsp:{lost[0]}",
                lost[0],
                ("coordinator", f"lsp:{lost[0]}"),
                self.cluster.replicas,
            )
        answer_ids = merge_answers(
            state.answers, group.locations, self.aggregate, job.k, self.poi_map
        )
        comm_bytes = sum(a.comm_bytes for a in state.answers)
        failovers = sum(a.failovers for a in state.answers)
        hedges = sum(1 for a in state.answers if a.hedged)
        hedge_wins = sum(1 for a in state.answers if a.hedge_won)
        if not lost:
            return ScatterOutcome(
                answer_ids=answer_ids,
                comm_bytes=comm_bytes,
                partial=False,
                coverage=1.0,
                lost_shards=(),
                expected_recall=1.0,
                failovers=failovers,
                hedges=hedges,
                hedge_wins=hedge_wins,
            )
        coverage = self.topology.coverage(lost)
        if coverage < self.cluster.quorum:
            raise ShardLostError(
                f"lsp:{lost[0]}",
                lost[0],
                ("coordinator", f"lsp:{lost[0]}"),
                self.cluster.replicas,
            )
        covered = tuple(
            shard for shard in range(self.topology.shards) if shard not in lost
        )
        quality = estimate_partial_quality(
            covered_pois=sum(self.topology.poi_count(s) for s in covered),
            total_pois=self.topology.total_pois,
            k=job.k,
        )
        partial = PartialAnswer(
            answer_ids=answer_ids,
            covered_shards=covered,
            lost_shards=lost,
            coverage=coverage,
            quality=quality,
        )
        self.stats.partial_answers += 1
        if self.obs is not None:
            self.obs.count("cluster.partial_answers")
        return ScatterOutcome(
            answer_ids=answer_ids,
            comm_bytes=comm_bytes,
            partial=True,
            coverage=coverage,
            lost_shards=lost,
            expected_recall=quality.expected_recall,
            failovers=failovers,
            hedges=hedges,
            hedge_wins=hedge_wins,
            partial_answer=partial,
        )

    def run_job(self, job: QueryJob, group: GroupProfile) -> ScatterOutcome:
        """Scatter, gather, and merge one job end to end."""
        with maybe_span(
            self.obs, "cluster.scatter", job_id=job.job_id,
            shards=self.topology.shards,
        ):
            state = self.begin(job)
            while not state.done:
                self.step(state, job, group)
            return self.finish(state, job, group)

    # --------------------------------------------------------- durability

    def checkpoint(self, state: ScatterState) -> bytes:
        """Freeze a mid-scatter state (progress + fault interpreter)."""
        from repro.guard.checkpoint import checkpoint_scatter

        state.fault_served = dict(self.fault_state.served)
        state.fault_sequence = self.fault_state.sequence
        return checkpoint_scatter(state)

    def restore(self, data: bytes) -> ScatterState:
        """Rebuild a mid-scatter state and resync the fault interpreter.

        The restored schedule replays exactly: remaining sub-queries see
        the same kill counters and sequence numbers an uninterrupted run
        would have, so the finished job is digest-identical to one that
        never stopped.
        """
        from repro.guard.checkpoint import restore_scatter

        state = restore_scatter(data)
        self.fault_state.served = dict(state.fault_served)
        self.fault_state.sequence = state.fault_sequence
        return state

    # ------------------------------------------------------------- stats

    def cache_stats(self) -> CacheStats:
        """Merged kNN-cache counters across all shard engines."""
        stats = CacheStats()
        for shard_lsp in self.shard_lsps:
            cache = shard_lsp.engine.knn_cache
            if cache is not None:
                stats.merge(cache.stats)
        return stats

    def transports(self):
        """Every live sub-session transport (retransmission accounting)."""
        for session in self._sessions.values():
            transport = getattr(session, "transport", None)
            if transport is not None:
                yield transport
