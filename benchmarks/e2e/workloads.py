"""The four workloads of the end-to-end benchmark and their metrics.

All four query the Sequoia surrogate (``load_sequoia``) through an R-tree
with the sum aggregate.  Three are closed loops of one client issuing
group queries through :class:`repro.QuerySession`; each stresses a
different layer (kGNN, client encryption, sanitation).  The fourth runs
serving batches through :class:`repro.serve.ServeEngine`, the only path
through the kNN cache, the nonce pools and the naive runner.

The seed fixes every input: group locations, key seeds, per-query seeds,
the LSP's sanitation sampler and the serving batches.  The POI database
is the fixed surrogate the paper evaluates on.

The end-to-end timings are reference-normalised seconds.  Shared hosts
change speed by 20% within minutes, for every process alike, so a fixed
pure-Python loop (:func:`probe`) runs between measured operations and each
duration is scaled by ``REFERENCE_PROBE_S`` over the probe times around
it.  On a host running at the reference speed the scaled values are plain
seconds.  The traced run's per-layer times are not scaled.
"""

from __future__ import annotations

import resource
import statistics
from collections import Counter, deque
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from time import perf_counter

import numpy as np

from repro import LSPServer, PPGNNConfig, QuerySession, ReproError, random_group
from repro.core.common import group_keypair
from repro.datasets import load_sequoia
from repro.serve import (
    BucketRunner,
    LSPSpec,
    ServeConfig,
    ServeEngine,
    Workload,
    WorkloadSpec,
    generate_workload,
)

from oracle import AnswerOracle, answers_digest
from spans import Patches, Tracer, layer_table

#: Seconds :func:`probe` takes on the reference host, a 2-vCPU cloud VM
#: (Python 3.11) at its usual speed.
REFERENCE_PROBE_S = 0.0035


@dataclass(frozen=True)
class Scale:
    """How big one run is."""

    pois: int
    keysize: int | None  # None keeps each workload's own key size
    max_queries: int | None  # None runs until --seconds have passed
    min_queries: int  # every run completes these; the digest covers them
    serve_jobs: int  # jobs per serving batch
    serve_batches: int | None  # None runs batches until --seconds have passed
    setup_reps: int


SCALES = {
    "paper": Scale(62_556, None, None, 10, 40, None, 3),
    "smoke": Scale(2_000, 128, 3, 3, 8, 2, 1),
}


@dataclass(frozen=True)
class DirectWorkload:
    """A closed loop: one client, the next query after the previous answer."""

    name: str
    protocol: str
    n: int
    config: PPGNNConfig


@dataclass(frozen=True)
class ServeWorkload:
    """Batches of jobs through the serving engine, one worker, in process.

    Every batch has the job stream ``generate_workload(spec)`` draws: the
    same repeats, protocols, k and groups, so the same cache hit ratio.
    The run seed and the batch index draw the group locations and the
    per-job seeds.  Drawing the stream per seed as well would move the
    share of cache hits, and with it every latency, from seed to seed.
    """

    name: str
    config: PPGNNConfig
    spec: WorkloadSpec

    def batch(self, seed: int, index: int, jobs: int, space) -> Workload:
        """Batch ``index`` of ``jobs`` jobs; a pure function of its arguments."""
        shape = generate_workload(replace(self.spec, queries=jobs), space)
        rng = np.random.default_rng([seed, index])
        batch_seed = seed * 1000 + index
        return replace(
            shape,
            spec=replace(shape.spec, seed=batch_seed),
            groups=tuple(
                replace(group, locations=tuple(space.sample_points(len(group.locations), rng)))
                for group in shape.groups
            ),
            # A repeat keeps its original's seed, so it stays verbatim.
            jobs=tuple(replace(job, seed=batch_seed * 1_000_003 + job.seed) for job in shape.jobs),
        )


WORKLOADS = {
    w.name: w
    for w in (
        # kGNN (MBM over the R-tree) dominates: 8 users, delta' candidates.
        DirectWorkload(
            "group-knn", "ppgnn", 8,
            PPGNNConfig(d=25, delta=25, k=8, theta0=0.05, keysize=512),
        ),
        # Client indicator encryption at the paper's 1024-bit key dominates;
        # n=1 and PPGNN-NAS skip sanitation.
        DirectWorkload(
            "single-crypto", "ppgnn", 1,
            PPGNNConfig(d=25, delta=25, k=8, theta0=None, sanitize=False, keysize=1024),
        ),
        # Monte-Carlo sanitation at a small theta0, plus the two-indicator
        # nested selection and nested decryption of PPGNN-OPT.
        DirectWorkload(
            "opt-sanitize", "ppgnn-opt", 4,
            PPGNNConfig(d=25, delta=25, k=8, theta0=0.01, keysize=512),
        ),
        # Verbatim repeats hit the kNN cache, misses fill and evict it; nonce
        # pools are refilled beside the online spends.
        ServeWorkload(
            "serve-repeat",
            PPGNNConfig(d=8, delta=16, theta0=0.05, keysize=512),
            WorkloadSpec(
                repeat_fraction=0.5,
                protocol_mix={"ppgnn": 2.0, "ppgnn-opt": 1.0, "naive": 1.0},
                group_size_mix={3: 1.0},
                k_mix={4: 1.0, 8: 1.0},
                groups=12,
                tenants=("tenant-0", "tenant-1"),
                # The stream of this seed is close to the mix above: 25 fresh
                # jobs (14 ppgnn, 6 opt, 5 naive) and 15 repeats, so the median
                # job is a miss, and no percentile sits between hits and misses.
                seed=23,
            ),
        ),
    )
}

#: Unit of every metric either run can emit.  ``ref_s`` is a second at the
#: reference host speed; ``setup_s`` is scaled the same way, but the
#: benchmark format fixes its unit as ``s``.
UNITS = {
    "setup_s": "s",
    "query_s_p50": "ref_s",
    "query_s_p75": "ref_s",
    "qps": "queries/ref_s",
    "user_s_p50": "ref_s",
    "lsp_s_p50": "ref_s",
    "comm_bytes_per_query": "bytes",
    "peak_rss_mb": "MiB",
    "query.traced_s": "s",
    "gnn.kgnn_s": "s",
    "gnn.kgnn_calls": "count",
    "index.nodes_visited": "count",
    "index.candidates_scored": "count",
    "index.candidates_per_kgnn": "count",
    "sanitize.share": "ratio",
    "sanitize.samples": "count",
    "sanitize.kept_ratio": "ratio",
    "sanitize.answer_pois": "POIs",
    "crypto.encrypt_s": "s",
    "crypto.encryptions": "count",
    "crypto.select_s": "s",
    "crypto.scalar_muls": "count",
    "crypto.additions": "count",
    "crypto.decrypt_s": "s",
    "crypto.decryptions": "count",
    "protocol.bytes_up": "bytes",
    "protocol.bytes_down": "bytes",
    "protocol.bytes_intra": "bytes",
    "protocol.messages": "count",
    "encoding.encode_s": "s",
    "encoding.decode_s": "s",
    "encoding.m": "count",
    "partition.solve_s": "s",
    "partition.delta_prime": "count",
    "client.location_set_s": "s",
    "lsp.self_s": "s",
    "query.other_s": "s",
    "datasets.load_s": "s",
    "index.build_s": "s",
    "crypto.keygen_s": "s",
    "cache.hits": "count",
    "cache.misses": "count",
    "cache.evictions": "count",
    "cache.hit_ratio": "ratio",
    "noncepool.refill_share": "ratio",
    "noncepool.precomputed": "count",
    "noncepool.pooled": "count",
    "noncepool.dry": "count",
    "trace.overhead_ratio": "ratio",
}


def probe() -> float:
    """Seconds for a fixed pure-Python loop, the host-speed reference."""
    start = perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i % 7
    return perf_counter() - start


class HostSpeed:
    """Probes the host between measured operations.

    :meth:`factor` probes ``probes`` more times and returns the scale for
    the operation that just ended: ``REFERENCE_PROBE_S`` over the median of
    the last five probes, which damps the probe's own jitter while
    following drift that takes seconds.
    """

    def __init__(self) -> None:
        self.recent = deque([probe()], maxlen=5)
        self.spent = 0.0  # seconds spent in probes after the first

    def factor(self, probes: int = 1) -> float:
        for _ in range(probes):
            seconds = probe()
            self.spent += seconds
            self.recent.append(seconds)
        return REFERENCE_PROBE_S / statistics.median(self.recent)


@dataclass
class Round:
    """The numbers one answered query leaves behind."""

    answer_ids: tuple[int, ...]
    k: int
    user_s: float
    lsp_s: float
    comm_bytes: int
    bytes_up: int
    bytes_down: int
    bytes_intra: int
    messages: int
    encryptions: int
    decryptions: int
    scalar_muls: int
    additions: int
    m: int
    delta_prime: int
    kgnn_calls: int
    kept: int
    samples: int
    wall: float = 0.0
    factor: float = 1.0  # host-speed scale of this query's timings
    query_id: object = None
    traced_wall: float | None = None  # the same query again, traced


def make_round(result, lsp, k: int) -> Round:
    report = result.report
    ops = report.ops_by_role.values()
    stats = lsp.last_stats
    links = report.comm_bytes_by_link
    return Round(
        answer_ids=result.answer_ids,
        k=k,
        user_s=report.user_cost_seconds,
        lsp_s=report.lsp_cost_seconds,
        comm_bytes=report.total_comm_bytes,
        bytes_up=sum(b for (_, dst), b in links.items() if dst == "lsp"),
        bytes_down=sum(b for (src, _), b in links.items() if src == "lsp"),
        bytes_intra=report.intra_group_comm_bytes,
        messages=sum(report.messages_by_link.values()),
        encryptions=sum(c.encryptions for c in ops),
        decryptions=sum(c.decryptions for c in ops),
        scalar_muls=sum(c.scalar_muls for c in ops),
        additions=sum(c.additions for c in ops),
        m=result.m,
        delta_prime=result.delta_prime,
        kgnn_calls=stats.kgnn_queries,
        kept=sum(stats.sanitized_answer_lengths),
        samples=stats.sanitation_samples * stats.candidate_count,
    )


@dataclass
class Run:
    """Everything one workload run measured, in plain seconds.

    Each set-up's times and each round carry the host-speed ``factor``
    that :func:`e2e_metrics` scales them by.
    """

    rounds: list[Round] = field(default_factory=list)
    setups: list[dict[str, float]] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    busy: list[tuple[float, float]] = field(default_factory=list)  # (seconds, factor)
    digest: str = ""
    index: Counter = field(default_factory=Counter)  # untraced work only
    serve: dict[str, int] = field(default_factory=dict)

    def traced(self) -> list[Round]:
        return [r for r in self.rounds if r.traced_wall is not None]


def index_work(counters) -> Counter:
    """A snapshot of an engine's cumulative ``index_counters``."""
    return Counter(
        queries=counters.queries,
        nodes_visited=counters.nodes_visited,
        candidates_scored=counters.candidates_scored,
    )


def percentile(values: list[float], percent: int) -> float:
    """Nearest-rank percentile: the smallest value with ``percent``% at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * percent // 100))
    return ordered[rank - 1]


def _setup(run: Run, scale: Scale, seed: int, config: PPGNNConfig, warm_up) -> tuple:
    """``scale.setup_reps`` full set-ups; returns the last one's
    ``(pois, lsp, config, warm_up(lsp, config, rep))``.

    One set-up loads the POIs, builds the LSP and its R-tree, generates a
    key pair under a fresh key seed (so neither the key nor the per-key
    exponentiation tables come from a cache) and runs ``warm_up``.  One
    set-up is alive at a time, so ``peak_rss_mb`` sees the size of one.
    """
    speed = HostSpeed()
    for rep in range(scale.setup_reps):
        pois = lsp = handle = None  # free the previous set-up first
        times = {}
        start = perf_counter()
        pois = load_sequoia(scale.pois)
        times["load"] = perf_counter() - start
        lsp = LSPServer(pois, seed=seed)
        times["build"] = perf_counter() - start - times["load"]
        config = replace(config, key_seed=seed * 16 + rep)
        group_keypair(config)
        times["keygen"] = perf_counter() - start - times["load"] - times["build"]
        handle = warm_up(lsp, config, rep)
        times["total"] = perf_counter() - start
        times["factor"] = speed.factor(probes=5)
        run.setups.append(times)
    return pois, lsp, config, handle


#: Pass order of a traced run's unit ``i``: ``PASSES[i % 2]`` (traced flags).
PASSES = ((False, True), (True, False))


def _keep_going(seconds: float, started: float, done: int, minimum: int, limit: int | None) -> bool:
    """Whether a loop that has finished ``done`` units should run another."""
    if limit is not None:
        return done < limit
    return done < minimum or perf_counter() - started < seconds


def run_direct(
    workload: DirectWorkload, scale: Scale, seed: int, seconds: float, tracer: Tracer | None
) -> Run:
    run = Run()
    config = workload.config
    if scale.keysize is not None:
        config = replace(config, keysize=scale.keysize)

    def warm_up(lsp, config, rep):
        session = QuerySession(lsp, config, protocol=workload.protocol, seed=seed, max_history=1)
        session.query(random_group(workload.n, lsp.space, np.random.default_rng([seed, rep])))
        return session

    pois, lsp, config, session = _setup(run, scale, seed, config, warm_up)
    oracle = AnswerOracle(pois)
    rng = np.random.default_rng(seed)
    groups = []
    speed = HostSpeed()

    def timed_query(group, query_id: int, traced: bool):
        # Pinning the query seed and the sanitation sampler makes a query
        # repeatable, so a traced run can time it both ways.
        query_seed = seed * 1_000_003 + query_id
        lsp.reset_rng(query_seed)
        if tracer is not None:
            tracer.active, tracer.query_id = traced, query_id
        work = index_work(lsp.engine.index_counters)
        begin = perf_counter()
        try:
            with tracer.span("query") if tracer is not None else nullcontext():
                result = session.query(group, seed=query_seed)
        finally:
            wall = perf_counter() - begin
            if tracer is not None:
                tracer.active = False
        if not traced:
            run.index += index_work(lsp.engine.index_counters) - work
        return result, wall

    started = perf_counter()
    while _keep_going(seconds, started, run.attempted, scale.min_queries, scale.max_queries):
        group = random_group(workload.n, lsp.space, rng)
        query_id = run.attempted
        run.attempted += 1
        # A traced run times every query untraced and traced, alternating which goes first.
        passes = (False,) if tracer is None else PASSES[query_id % 2]
        try:
            timed = {traced: timed_query(group, query_id, traced) for traced in passes}
        except ReproError as exc:
            run.failures.append(f"query {query_id}: {type(exc).__name__}: {exc}")
            continue
        result, wall = timed[False]
        record = make_round(result, lsp, config.k)
        record.wall, record.factor, record.query_id = wall, speed.factor(), query_id
        if True in timed:
            traced_result, record.traced_wall = timed[True]
            if traced_result.answer_ids != result.answer_ids:
                run.failures.append(f"query {query_id}: tracing changed the answer")
        run.rounds.append(record)
        groups.append(group)
    run.busy = [(r.wall, r.factor) for r in run.rounds]
    for record, group in zip(run.rounds, groups):
        problem = oracle.check(record.answer_ids, group, record.k)
        if problem is not None:
            run.failures.append(f"query {record.query_id}: {problem}")
    run.digest = answers_digest(r.answer_ids for r in run.rounds[: scale.min_queries])
    return run


class ServeObserver:
    """Hooks at the serving engine's job boundary, installed in both runs.

    ``ServeEngine.run`` is a batch call, so per-job wall time, the rounds'
    cost reports and the replicas' index counters can only be read from
    inside it.  The job hook probes the host after each job, outside the
    job's own time; the other hooks add an append.  While ``traced`` is set
    the hooks open the root spans and keep the job times apart.
    """

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.speed = HostSpeed()
        self.batch = 0
        self.traced = False
        #: (batch, job id, traced) -> (wall seconds, host-speed factor)
        self.jobs: dict[tuple[int, int, bool], tuple[float, float]] = {}
        self.rounds: dict[tuple[int, int], Round] = {}
        self.index_counters: list = []  # of the untraced batches' replicas
        self._job: tuple[int, int] | None = None

    def _span(self, name: str):
        return self.tracer.span(name) if self.traced else nullcontext()

    def install(self, patches: Patches) -> None:
        observer = self

        def wrap_run_job(original):
            def run_job(runner, job, group):
                key = observer._job = (observer.batch, job.job_id)
                if observer.traced:
                    observer.tracer.active, observer.tracer.query_id = True, key
                start = perf_counter()
                try:
                    with observer._span("serve.job"):
                        return original(runner, job, group)
                finally:
                    wall = perf_counter() - start
                    if observer.traced:
                        observer.tracer.active = False
                    observer.jobs[key + (observer.traced,)] = (wall, observer.speed.factor())

            return run_job

        def wrap_query(original):
            def query(session, locations, seed=None):
                with observer._span("query"):
                    result = original(session, locations, seed=seed)
                if not observer.traced:
                    observer.rounds[observer._job] = make_round(
                        result, session.lsp, session.config.k
                    )
                return result

            return query

        def wrap_build(original):
            def build(spec):
                lsp = original(spec)
                if not observer.traced:
                    # The counters object only, so the replica is freed.
                    observer.index_counters.append(lsp.engine.index_counters)
                return lsp

            return build

        patches.replace(BucketRunner, "run_job", wrap_run_job)
        patches.replace(QuerySession, "query", wrap_query)
        patches.replace(LSPSpec, "build", wrap_build)


def run_serve(
    workload: ServeWorkload, scale: Scale, seed: int, seconds: float, tracer: Tracer | None
) -> Run:
    run = Run()
    config = workload.config
    if scale.keysize is not None:
        config = replace(config, keysize=scale.keysize)
    serve_config = ServeConfig(workers=1, executor="serial")

    def warm_up(lsp, config, rep):
        engine = ServeEngine(lsp, config, serve_config)
        engine.run(workload.batch(seed, 1000 + rep, 1, lsp.space))
        return engine

    pois, lsp, config, engine = _setup(run, scale, seed, config, warm_up)
    oracle = AnswerOracle(pois)
    patches = Patches()
    observer = ServeObserver(tracer)
    observer.install(patches)

    def serve_batch(jobs: Workload, traced: bool):
        """The report and its wall seconds less the probes run inside it."""
        observer.traced = traced
        spent = observer.speed.spent
        report = engine.run(jobs)
        return report, report.wall_seconds - (observer.speed.spent - spent)

    batches = []
    serve = dict.fromkeys(("hits", "misses", "evictions", "precomputed", "pooled", "dry"), 0)
    started = perf_counter()
    try:
        while _keep_going(seconds, started, len(batches), 1, scale.serve_batches):
            observer.batch = len(batches)
            jobs = workload.batch(seed, observer.batch, scale.serve_jobs, lsp.space)
            # A traced run serves every batch untraced and traced, alternating which goes first.
            passes = (False,) if tracer is None else PASSES[observer.batch % 2]
            served = {traced: serve_batch(jobs, traced) for traced in passes}
            report, busy = served[False]
            if True in served and served[True][0].answers_digest != report.answers_digest:
                run.failures.append(f"batch {observer.batch}: tracing changed the answers")
            batches.append((jobs, report))
            factors = [
                factor
                for (batch, _, traced), (_, factor) in observer.jobs.items()
                if batch == observer.batch and not traced
            ]
            run.attempted += report.queries
            run.busy.append((busy, _mean(factors)))
            for key in ("hits", "misses", "evictions"):
                serve[key] += report.cache[key]
            for key in ("precomputed", "pooled", "dry"):
                serve[key] += report.pool[key]
            run.failures.extend(f"job {job}: {error}" for job, error in report.failures)
            run.failures.extend(f"job {r.job_id}: {r.error_type}" for r in report.rejections)
    finally:
        patches.restore()

    answers = []
    for batch, (jobs, report) in enumerate(batches):
        for job in jobs.jobs:
            outcome = report.outcomes.get(job.job_id)
            if outcome is None or not outcome.ok:
                continue
            key = (batch, job.job_id)
            record = observer.rounds[key]
            record.wall, record.factor = observer.jobs[key + (False,)]
            if key + (True,) in observer.jobs:
                record.traced_wall = observer.jobs[key + (True,)][0]
            record.query_id = key
            run.rounds.append(record)
            if batch == 0:
                answers.append(outcome.answer_ids)
            problem = oracle.check(outcome.answer_ids, jobs.group(job.group_id).locations, job.k)
            if problem is not None:
                run.failures.append(f"batch {batch} job {job.job_id}: {problem}")
    run.digest = answers_digest(answers)
    run.index = sum(map(index_work, observer.index_counters), Counter())
    run.serve = serve
    return run


def _median_setup(run: Run, phase: str, scaled: bool = False) -> float:
    return statistics.median(
        times[phase] * (times["factor"] if scaled else 1.0) for times in run.setups
    )


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


def e2e_metrics(run: Run, scaled: bool = True) -> dict[str, float]:
    """The user-visible metrics, measured with tracing off.

    Timings are scaled to the reference host speed unless ``scaled`` is
    false.
    """
    rounds = run.rounds

    def times(attr: str) -> list[float]:
        return [getattr(r, attr) * (r.factor if scaled else 1.0) for r in rounds]

    walls = times("wall")
    return {
        "setup_s": _median_setup(run, "total", scaled),
        "query_s_p50": percentile(walls, 50),
        "query_s_p75": percentile(walls, 75),
        "qps": len(rounds) / sum(s * (f if scaled else 1.0) for s, f in run.busy),
        "user_s_p50": percentile(times("user_s"), 50),
        "lsp_s_p50": percentile(times("lsp_s"), 50),
        "comm_bytes_per_query": _mean(r.comm_bytes for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(run: Run, tracer: Tracer, root: str) -> dict[str, float]:
    """Per-layer work and self time; times are per traced query, unscaled."""
    rounds = run.rounds
    queries = len(rounds)
    self_seconds = tracer.self_seconds()
    root_seconds, traced = tracer.total_seconds(root)

    def per_query(name: str) -> float:
        return self_seconds.get(name, 0.0) / traced

    def share(name: str) -> float:
        return self_seconds.get(name, 0.0) / root_seconds

    def mean(attr: str) -> float:
        return _mean(getattr(r, attr) for r in rounds)

    def per_job(counter: str) -> float:
        return run.serve.get(counter, 0) / queries

    lookups = per_job("hits") + per_job("misses")
    paired = run.traced()
    untraced = sum(r.wall for r in paired)
    traced_again = sum(r.traced_wall for r in paired)
    return {
        "query.traced_s": root_seconds / traced,
        "gnn.kgnn_s": per_query("gnn.kgnn"),
        "gnn.kgnn_calls": mean("kgnn_calls"),
        "index.nodes_visited": run.index["nodes_visited"] / queries,
        "index.candidates_scored": run.index["candidates_scored"] / queries,
        "index.candidates_per_kgnn": run.index["candidates_scored"] / max(run.index["queries"], 1),
        "sanitize.share": share("sanitize"),
        "sanitize.samples": mean("samples"),
        "sanitize.kept_ratio": sum(r.kept for r in rounds)
        / sum(r.k * r.kgnn_calls for r in rounds),
        "sanitize.answer_pois": _mean(len(r.answer_ids) for r in rounds),
        "crypto.encrypt_s": per_query("crypto.encrypt"),
        "crypto.encryptions": mean("encryptions"),
        "crypto.select_s": per_query("crypto.select"),
        "crypto.scalar_muls": mean("scalar_muls"),
        "crypto.additions": mean("additions"),
        "crypto.decrypt_s": per_query("crypto.decrypt"),
        "crypto.decryptions": mean("decryptions"),
        "protocol.bytes_up": mean("bytes_up"),
        "protocol.bytes_down": mean("bytes_down"),
        "protocol.bytes_intra": mean("bytes_intra"),
        "protocol.messages": mean("messages"),
        "encoding.encode_s": per_query("encoding.encode"),
        "encoding.decode_s": per_query("encoding.decode"),
        "encoding.m": mean("m"),
        "partition.solve_s": per_query("partition.solve"),
        "partition.delta_prime": mean("delta_prime"),
        "client.location_set_s": per_query("client.location_set"),
        "lsp.self_s": per_query("lsp"),
        "query.other_s": per_query("query"),
        "datasets.load_s": _median_setup(run, "load"),
        "index.build_s": _median_setup(run, "build"),
        "crypto.keygen_s": _median_setup(run, "keygen"),
        "cache.hits": per_job("hits"),
        "cache.misses": per_job("misses"),
        "cache.evictions": per_job("evictions"),
        "cache.hit_ratio": per_job("hits") / lookups if lookups else 0.0,
        "noncepool.refill_share": share("noncepool.refill"),
        "noncepool.precomputed": per_job("precomputed"),
        "noncepool.pooled": per_job("pooled"),
        "noncepool.dry": per_job("dry"),
        "trace.overhead_ratio": untraced / traced_again,
    }


def host_probe() -> float:
    """The diagnostic ``host.probe_s``: best of three probes."""
    return min(probe() for _ in range(3))


def run_workload(
    name: str, scale_name: str, seed: int, seconds: float, trace: bool, spans_path=None
) -> dict:
    """Run one workload in this process and return its result record.

    A traced run writes its spans as JSONL to ``spans_path`` (when given)
    and adds the per-layer self-time table to the record.
    """
    workload = WORKLOADS[name]
    scale = SCALES[scale_name]
    probe_before = host_probe()
    tracer = Tracer() if trace else None
    patches = Patches()
    if tracer is not None:
        tracer.install(patches)
    try:
        if isinstance(workload, DirectWorkload):
            run, root = run_direct(workload, scale, seed, seconds, tracer), "query"
        else:
            run, root = run_serve(workload, scale, seed, seconds, tracer), "serve.job"
    finally:
        patches.restore()
    probe_after = host_probe()
    values = unscaled = {}
    if run.rounds and tracer is not None:
        values = layer_metrics(run, tracer, root)
    elif run.rounds:
        values, unscaled = e2e_metrics(run), e2e_metrics(run, scaled=False)
    record = {
        "workload": name,
        "seed": seed,
        "scale": scale_name,
        "trace": int(trace),
        "correct": not run.failures and bool(run.rounds),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {key: {"value": value, "unit": UNITS[key]} for key, value in values.items()},
        "diagnostics": {
            "answers_digest": run.digest,
            "queries": len(run.rounds),
            "host.probe_s": [probe_before, probe_after],
            "noisy": abs(probe_after - probe_before) > 0.10 * min(probe_before, probe_after),
            "host_speed": [min(r.factor for r in run.rounds), max(r.factor for r in run.rounds)]
            if run.rounds
            else [],
            "unscaled": unscaled,  # the e2e metrics in plain seconds
            "failures": run.failures[:10],
        },
    }
    if tracer is not None and run.rounds:
        root_seconds, traced = tracer.total_seconds(root)
        record["layer_table"] = layer_table(tracer.self_seconds(), traced, root_seconds)
        if spans_path is not None:
            tracer.write_jsonl(spans_path)
    return record
