"""Command-line interface.

Installed as the ``repro`` console script:

- ``repro info``    — library, parameter, and paper metadata,
- ``repro query``   — run one privacy-preserving (group) kNN query with
  chosen privacy parameters and print the answer plus the cost report,
- ``repro attack``  — run the full-collusion inequality attack against a
  sanitized and an unsanitized answer, side by side,
- ``repro solve``   — solve the partition parameters for an (n, d, delta)
  triple (Eqns 7-10) and print the layout,
- ``repro serve-bench`` — run a seeded multi-session workload through the
  :mod:`repro.serve` engine and print (optionally record) the serving
  report,
- ``repro trace`` — render a span tree: either from a recorded JSONL
  trace (``--input``) or by running one traced query, flagging the
  slowest path and printing the metric counters it published,
- ``repro analyze`` — trace analytics: per-phase attribution
  (crypto/transport/queue/compute), the exact critical path, queue-delay
  attribution and per-query op counts over a recorded trace or serving
  report,
- ``repro perf-check`` — the performance sentinel: run a pinned
  per-protocol workload and check its exact counters and timings against
  the head of its lineage in the run ledger under ``benchmarks/series/``
  (read-only, exit nonzero when an exact counter regressed), or append
  the run as the new head (``--record``, accepting what it moved),
- ``repro trend`` — the cross-commit run ledger: append bench documents
  or ledger JSONL into ``benchmarks/series/`` (``--append``), render the
  sparkline trend dashboard (``--report``), and gate every lineage on
  unexplained exact-counter changepoints (``--check``).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

from repro import __version__
from repro.attacks.inequality import inequality_attack
from repro.bench.harness import format_bytes, format_seconds
from repro.core.config import PPGNNConfig
from repro.core.group import PROTOCOLS, random_group, run_ppgnn, run_round
from repro.core.lsp import LSPServer
from repro.core.single import run_single_user
from repro.datasets.sequoia import load_sequoia
from repro.errors import ReproError
from repro.gnn.engine import INDEX_KINDS
from repro.partition.solver import solve_partition

#: The ``--protocol`` spellings of ``query`` and ``trace``, each naming one
#: of ``PROTOCOLS``; ``query`` also takes ``nas``, PPGNN without sanitation.
_SPELLINGS = {"ppgnn": "ppgnn", "opt": "ppgnn-opt", "naive": "naive"}


def _add_common_query_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pois", type=int, default=10_000, help="database size")
    parser.add_argument("--n", type=int, default=8, help="group size")
    parser.add_argument("--d", type=int, default=25, help="Privacy I parameter")
    parser.add_argument("--delta", type=int, default=100, help="Privacy II parameter")
    parser.add_argument("--k", type=int, default=8, help="POIs to retrieve")
    parser.add_argument(
        "--theta0", type=float, default=0.05, help="Privacy IV parameter"
    )
    parser.add_argument("--keysize", type=int, default=256, help="Paillier bits")
    parser.add_argument("--seed", type=int, default=1, help="randomness seed")
    parser.add_argument(
        "--aggregate", default="sum", choices=["sum", "max", "min"], help="F"
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for the `repro` console script."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Privacy Preserving Group Nearest Neighbor Search (EDBT 2018)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="show library and paper metadata")

    query = sub.add_parser("query", help="run one privacy-preserving query")
    _add_common_query_args(query)
    query.add_argument(
        "--protocol",
        default="ppgnn",
        choices=sorted(_SPELLINGS) + ["nas"],
        help="protocol variant",
    )

    attack = sub.add_parser("attack", help="demonstrate the collusion attack")
    _add_common_query_args(attack)
    attack.add_argument(
        "--samples", type=int, default=20_000, help="attack Monte-Carlo samples"
    )

    solve = sub.add_parser("solve", help="solve the partition parameters")
    solve.add_argument("--n", type=int, required=True)
    solve.add_argument("--d", type=int, required=True)
    solve.add_argument("--delta", type=int, required=True)

    serve = sub.add_parser(
        "serve-bench", help="run a serving workload and report throughput"
    )
    serve.add_argument("--pois", type=int, default=2_000, help="database size")
    serve.add_argument("--queries", type=int, default=50, help="jobs to serve")
    serve.add_argument("--groups", type=int, default=6, help="distinct query groups")
    serve.add_argument("--d", type=int, default=4, help="Privacy I parameter")
    serve.add_argument("--delta", type=int, default=8, help="Privacy II parameter")
    serve.add_argument("--k", type=int, default=4, help="POIs to retrieve")
    serve.add_argument("--keysize", type=int, default=256, help="Paillier bits")
    serve.add_argument("--seed", type=int, default=1, help="workload seed")
    serve.add_argument("--workers", type=int, default=2, help="serving workers")
    serve.add_argument("--rate", type=float, default=8.0, help="arrival rate (qps)")
    serve.add_argument(
        "--repeat-fraction", type=float, default=0.3,
        help="probability a job re-issues an earlier query verbatim",
    )
    serve.add_argument(
        "--record", metavar="DIR", default=None,
        help="write BENCH_serve.json into this directory",
    )
    serve.add_argument(
        "--json", action="store_true", help="print the full report as JSON"
    )
    serve.add_argument(
        "--obs", action="store_true",
        help="collect traces and metrics; embeds them in the report",
    )
    serve.add_argument(
        "--trace-out", metavar="FILE", default=None,
        help="write the merged span trace as JSONL (implies --obs)",
    )
    serve.add_argument(
        "--index", default="rtree", choices=INDEX_KINDS,
        help="index substrate behind the kGNN engine (every kind keeps the "
        "answers digest byte-identical)",
    )

    trace = sub.add_parser(
        "trace", help="render a span tree from a trace file or a live query"
    )
    _add_common_query_args(trace)
    trace.add_argument(
        "--protocol",
        default="ppgnn",
        choices=sorted(_SPELLINGS),
        help="protocol variant to trace (live mode)",
    )
    trace.add_argument(
        "--input", metavar="FILE", default=None,
        help="render this JSONL trace instead of running a query",
    )
    trace.add_argument(
        "--out", metavar="FILE", default=None,
        help="also write the captured trace as JSONL (live mode)",
    )
    trace.add_argument(
        "--allow-truncated", action="store_true",
        help="drop a partial last line (killed run) instead of erroring",
    )

    analyze = sub.add_parser(
        "analyze",
        help="phase attribution, critical path, queue delay, and op counts",
    )
    source = analyze.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--input", metavar="FILE", default=None,
        help="analyze a recorded JSONL span trace",
    )
    source.add_argument(
        "--report", metavar="FILE", default=None,
        help="analyze a serving report JSON (to_dict output or BENCH_*.json)",
    )
    analyze.add_argument(
        "--allow-truncated", action="store_true",
        help="drop a partial last trace line instead of erroring",
    )

    perf = sub.add_parser(
        "perf-check",
        help="record or check per-protocol perf baselines (the CI gate)",
    )
    perf.add_argument(
        "--series-dir", default="benchmarks/series",
        help="run ledger location; a baseline is the last record of its "
        "(suite, config, keysize) lineage",
    )
    perf.add_argument(
        "--suite", choices=("protocols", "crypto"), default="protocols",
        help="'protocols': end-to-end protocol workloads; 'crypto': the "
        "Paillier hot-path micro-suite at --keysize (baseline "
        "'crypto-<keysize>')",
    )
    perf.add_argument(
        "--protocols", nargs="+", default=list(PROTOCOLS),
        choices=list(PROTOCOLS), metavar="PROTOCOL",
        help="protocols to exercise (default: all three)",
    )
    perf.add_argument("--pois", type=int, default=300, help="database size")
    perf.add_argument("--n", type=int, default=3, help="group size")
    perf.add_argument("--d", type=int, default=3, help="Privacy I parameter")
    perf.add_argument("--delta", type=int, default=6, help="Privacy II parameter")
    perf.add_argument("--k", type=int, default=3, help="POIs to retrieve")
    perf.add_argument("--keysize", type=int, default=128, help="Paillier bits")
    perf.add_argument("--seed", type=int, default=7, help="pinned workload seed")
    perf.add_argument(
        "--record", action="store_true",
        help="append this run as the new baseline, accepting every exact "
        "counter it moved, instead of checking",
    )
    perf.add_argument(
        "--report-out", metavar="FILE", default=None,
        help="write the markdown regression report here",
    )

    trend = sub.add_parser(
        "trend",
        help="append runs to the cross-commit perf ledger and analyze trends",
    )
    trend.add_argument(
        "--series-dir", default="benchmarks/series",
        help="ledger location (one append-only JSONL file per suite)",
    )
    trend.add_argument(
        "--append", action="append", metavar="FILE", default=None,
        help="append ledger records parsed from this file — a "
        "BENCH_*.json document or a raw ledger JSONL fragment (repeatable)",
    )
    trend.add_argument(
        "--accept", action="append", metavar="METRIC", default=None,
        help="mark this exact metric's movement in the appended records as "
        "explained; accepted steps never fail --check (repeatable)",
    )
    trend.add_argument(
        "--suite", action="append", metavar="SUITE", default=None,
        help="restrict --check/--report to these suites (repeatable; "
        "default: every suite with a ledger file)",
    )
    trend.add_argument(
        "--check", action="store_true",
        help="exit 1 on unexplained exact-counter regressions",
    )
    trend.add_argument(
        "--report", nargs="?", const="BENCH_TRENDS.md", default=None,
        metavar="FILE",
        help="render the markdown trend dashboard (default: BENCH_TRENDS.md)",
    )
    trend.add_argument(
        "--window", type=int, default=8,
        help="trailing records in the rolling timing tolerance band",
    )
    trend.add_argument(
        "--allow-truncated", action="store_true",
        help="recover a ledger whose last line was cut off by a killed "
        "append instead of erroring",
    )
    return parser


def _build_config(args: argparse.Namespace, sanitize: bool = True) -> PPGNNConfig:
    return PPGNNConfig(
        d=args.d,
        delta=args.delta,
        k=args.k,
        theta0=args.theta0,
        sanitize=sanitize,
        keysize=args.keysize,
        key_seed=args.seed,
    )


def _cmd_info(_: argparse.Namespace) -> int:
    print(f"repro {__version__}")
    print("Reproduction of: Privacy Preserving Group Nearest Neighbor Search")
    print("                 (Wu, Wang, Zhang, Lin, Chen — EDBT 2018)")
    print("Protocols: ppgnn, ppgnn-opt, naive, ppgnn-nas, single-user")
    print("Baselines: apnn, ippf, glp")
    print("Defaults (paper Table 3): d=25 delta=100 k=8 n=8 theta0=0.05")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    sanitize = args.protocol != "nas" and args.n > 1
    config = _build_config(args, sanitize=sanitize)
    protocol = _SPELLINGS.get(args.protocol, "ppgnn")
    lsp = LSPServer(
        load_sequoia(args.pois), aggregate_name=args.aggregate, seed=args.seed
    )
    print(f"database: {args.pois} POIs; protocol: {args.protocol}; n={args.n}")
    if args.n == 1:
        location = lsp.space.sample_point(np.random.default_rng(args.seed))
        result = run_single_user(lsp, location, config, seed=args.seed)
    else:
        group = random_group(args.n, lsp.space, np.random.default_rng(args.seed))
        result = run_round(protocol, lsp, group, config, seed=args.seed)
    print(f"answer ({len(result.answers)} of k={args.k} POIs):")
    for rank, answer in enumerate(result.answers, start=1):
        print(f"  {rank}. {lsp.engine.poi_by_id(answer.poi_id)}")
    report = result.report
    print(f"candidate queries : {result.delta_prime}")
    print(f"communication     : {format_bytes(report.total_comm_bytes)}")
    print(f"user computation  : {format_seconds(report.user_cost_seconds)}")
    print(f"LSP computation   : {format_seconds(report.lsp_cost_seconds)}")
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    lsp = LSPServer(
        load_sequoia(args.pois), aggregate_name=args.aggregate, seed=args.seed
    )
    group = random_group(max(args.n, 2), lsp.space, np.random.default_rng(args.seed))
    for label, sanitize in (("without sanitation", False), ("with sanitation", True)):
        config = _build_config(args, sanitize=sanitize)
        result = run_ppgnn(lsp, group, config, seed=args.seed)
        outcome = inequality_attack(
            [a.location for a in result.answers],
            group[1:],
            lsp.space,
            lsp.aggregate,
            n_samples=args.samples,
            rng=np.random.default_rng(args.seed),
            true_target=group[0],
        )
        print(
            f"{label:<20} answers={len(result.answers)} "
            f"victim region={outcome.theta_estimate:.2%} "
            f"attack succeeds={outcome.succeeded(args.theta0)}"
        )
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    params = solve_partition(args.n, args.d, args.delta)
    print(f"alpha (subgroups)  : {params.alpha}  sizes {params.subgroup_sizes}")
    print(f"beta (segments)    : {params.beta}  sizes {params.segment_sizes}")
    print(f"delta' (candidates): {params.delta_prime} (requested {args.delta})")
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.serve import ServeConfig, ServeEngine, WorkloadSpec, generate_workload

    lsp = LSPServer(
        load_sequoia(args.pois),
        sanitation_samples=16,
        seed=args.seed,
        index=args.index,
    )
    config = PPGNNConfig(
        d=args.d, delta=args.delta, k=args.k, keysize=args.keysize, key_seed=args.seed
    )
    spec = WorkloadSpec(
        queries=args.queries,
        rate_qps=args.rate,
        protocol_mix={"ppgnn": 2.0, "ppgnn-opt": 1.0, "naive": 1.0},
        group_size_mix={2: 1.0, 3: 1.0},
        k_mix={args.k: 1.0},
        tenants=("tenant-0", "tenant-1"),
        groups=args.groups,
        repeat_fraction=args.repeat_fraction,
        seed=args.seed,
    )
    serve = ServeConfig(
        workers=args.workers,
        obs=args.obs or args.trace_out is not None,
        index=args.index,
    )
    workload = generate_workload(spec, lsp.space)
    report = ServeEngine(lsp, config, serve).run(workload)
    if args.trace_out:
        spans = (report.obs or {}).get("spans", [])
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            for span in spans:
                fh.write(json_module.dumps(span, sort_keys=True) + "\n")
        print(f"trace: {len(spans)} spans -> {args.trace_out}")
    if args.json:
        print(json_module.dumps(report.to_dict(include_wall=True), indent=2))
    else:
        print(
            f"served {report.completed}/{report.queries} queries "
            f"({report.failed} failed, {report.rejected} rejected) "
            f"on {serve.workers} workers"
        )
        print(
            f"simulated throughput: {report.throughput_qps:.2f} qps; "
            f"wall-clock: {report.wall_qps:.2f} qps "
            f"({format_seconds(report.wall_seconds)})"
        )
        print(
            f"latency p50/p95/p99: {report.latency_p50:.3f}/"
            f"{report.latency_p95:.3f}/{report.latency_p99:.3f} s simulated"
        )
        print(
            f"kNN cache: {report.cache['hits']} hits / "
            f"{report.cache['misses']} misses; nonce pool hit rate "
            f"{report.pool['hit_rate']:.0%}"
        )
    if args.record:
        from repro.bench.recorder import SeriesRecorder

        path = SeriesRecorder(args.record).record_json(
            "serve",
            report.to_dict(include_wall=True),
            keysize=args.keysize,
            metrics=(report.obs or {}).get("metrics"),
            config={
                "pois": args.pois,
                "queries": args.queries,
                "groups": args.groups,
                "workers": args.workers,
                "rate_qps": args.rate,
                "repeat_fraction": args.repeat_fraction,
                "seed": args.seed,
            },
        )
        print(f"recorded: {path}")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import Observability, parse_jsonl, render_span_tree

    if args.input is not None:
        with open(args.input, encoding="utf-8") as fh:
            spans = parse_jsonl(
                fh.read(), allow_truncated_tail=args.allow_truncated
            )
        print(render_span_tree(spans))
        return 0

    obs = Observability()
    config = _build_config(args, sanitize=args.n > 1)
    protocol = _SPELLINGS.get(args.protocol, "ppgnn")
    lsp = LSPServer(
        load_sequoia(args.pois), aggregate_name=args.aggregate, seed=args.seed
    )
    group = random_group(max(args.n, 2), lsp.space, np.random.default_rng(args.seed))
    run_round(protocol, lsp, group, config, seed=args.seed, obs=obs)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(obs.tracer.export_jsonl() + "\n")
        print(f"trace: {len(obs.tracer.spans())} spans -> {args.out}")
    print(render_span_tree(obs.tracer.spans()))
    snapshot = obs.snapshot()
    if snapshot.counters:
        print()
        print("metrics:")
        for name in sorted(snapshot.counters):
            print(f"  {name} = {snapshot.counters[name]}")
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.obs import (
        attribute_phases_by_protocol,
        parse_jsonl,
        render_attribution,
    )
    from repro.obs.analyze import analyze_serve_report, load_report_document

    if args.input is not None:
        with open(args.input, encoding="utf-8") as fh:
            spans = parse_jsonl(
                fh.read(), allow_truncated_tail=args.allow_truncated
            )
        print(render_attribution(spans))
        per_protocol = attribute_phases_by_protocol(spans)
        if per_protocol:
            print()
            print("per-protocol phase shares:")
            for protocol in sorted(per_protocol):
                breakdown = per_protocol[protocol]
                shares = "  ".join(
                    f"{phase} {breakdown.fraction(phase):.1%}"
                    for phase in ("crypto", "transport", "queue", "compute")
                )
                print(f"  {protocol:<12} {shares}")
        return 0

    with open(args.report, encoding="utf-8") as fh:
        report = load_report_document(fh.read())
    print(analyze_serve_report(report))
    return 0


def _perf_metrics(
    protocol: str, args: argparse.Namespace
) -> tuple[dict[str, float], dict[str, int]]:
    """Run one pinned query and distill it into sentinel metrics.

    Everything under ``ops.`` / ``comm.`` / ``protocol.`` / ``answers.``
    is a deterministic function of the seeded workload (exact, zero
    tolerance); ``time.*`` is wall clock (relative tolerance only).
    Returns the metrics alongside the traced phase breakdown (the
    ``repro analyze`` attribution), which rides into the run ledger so
    trend changepoints can name the phase the offending commit spent in.
    """
    from repro.core.common import group_keypair
    from repro.obs import Observability, attribute_phases, estimate_modmuls

    config = PPGNNConfig(
        d=args.d,
        delta=args.delta,
        k=args.k,
        sanitize=args.n > 1,
        keysize=args.keysize,
        key_seed=args.seed,
    )
    lsp = LSPServer(load_sequoia(args.pois), seed=args.seed)
    group = random_group(args.n, lsp.space, np.random.default_rng(args.seed))
    obs = Observability()
    result = run_round(protocol, lsp, group, config, seed=args.seed, obs=obs)
    counters = obs.snapshot().counters
    modmuls = estimate_modmuls(counters, group_keypair(config))
    rounds = sum(
        1 for span in obs.tracer.spans() if span.name.startswith("round.")
    )
    phases = attribute_phases(obs.tracer.spans()).ticks
    return {
        "ops.encryptions": counters.get("crypto.encryptions", 0),
        "ops.decryptions.crt": counters.get("crypto.decryptions.crt", 0),
        "ops.decryptions.generic": counters.get("crypto.decryptions.generic", 0),
        "ops.scalar_muls": counters.get("crypto.scalar_muls", 0),
        "ops.additions": counters.get("crypto.additions", 0),
        "ops.kgnn_queries": counters.get("lsp.kgnn_queries", 0),
        "ops.modmuls_estimated": modmuls["total"],
        "protocol.rounds": rounds,
        "comm.bytes_total": result.report.total_comm_bytes,
        "answers.count": len(result.answers),
        "index.queries": lsp.engine.index_counters.queries,
        "index.nodes_visited": lsp.engine.index_counters.nodes_visited,
        "index.candidates_scored": lsp.engine.index_counters.candidates_scored,
        "time.user_seconds": round(result.report.user_cost_seconds, 6),
        "time.lsp_seconds": round(result.report.lsp_cost_seconds, 6),
    }, phases


def _crypto_micro_metrics(args: argparse.Namespace) -> dict[str, float]:
    """The Paillier hot-path micro-suite at one keysize.

    Runs a pinned mix of encryptions (public and key-owner), pooled
    encryptions, rerandomizations, a homomorphic dot product, pool refills
    (windowed and key-owner), and both decryption paths through profiled
    keys under the ambient fast-path
    setting (``REPRO_FASTEXP``); then replays the identical mix with the
    *opposite* setting and insists every produced ciphertext value matches
    — the digest the sentinel freezes is therefore provably independent of
    the fast paths.  The ``ops.*`` counters are exact big-integer
    multiplication ledgers per op class, window tables included
    (zero-tolerance, lower is better), so any accidental cost regression
    in the crypto hot path fails the gate — and recording with
    ``REPRO_FASTEXP=0`` then checking with the default demonstrates the
    fast paths strictly lowering them.  The key owner's half-width path
    (owner encryptions and owner-pool refills) shrinks the *width* of each
    multiplication while raising the count, so it gates on limb-weighted
    work (``mul_work64``, each stage at its own modulus width) instead of
    raw muls.
    """
    import hashlib
    import random
    import time as time_module

    from repro.crypto import fastexp
    from repro.crypto.homomorphic import hom_dot
    from repro.crypto.noncepool import NoncePool, encrypt_with_pool
    from repro.crypto.paillier import generate_keypair
    from repro.obs.profile import profile_keypair, stage_work

    # Eight 8-bit fields in one plaintext, first field least significant.
    packed_fields = [3, 1, 4, 1, 5, 9, 2, 6]
    packed_plaintext = sum(v << (8 * i) for i, v in enumerate(packed_fields))

    def run(fast: bool):
        with fastexp.forced(fast):
            keys, profiler = profile_keypair(
                generate_keypair(args.keysize, seed=args.seed)
            )
            pk, sk = keys.public_key, keys.secret_key
            rng = random.Random(args.seed * 7919 + args.keysize)
            values: list[int] = []

            ciphertexts = [pk.encrypt(m, rng=rng) for m in range(8)]
            values += [c.value for c in ciphertexts]
            rerandomized = [pk.rerandomize(c, rng) for c in ciphertexts[:4]]
            values += [c.value for c in rerandomized]

            # Public pool: refills run the windowed fixed-exponent program.
            pool = NoncePool(pk)
            pool.refill(8, rng=random.Random(args.seed + 1))
            from_pool = [encrypt_with_pool(pool, m) for m in range(8)]
            values += [c.value for c in from_pool]

            # Key-owner pool: refills run the owner's half-width path; the
            # packed encryption spends one factor for all eight fields.
            owner_pool = NoncePool(pk, sk)
            owner_pool.refill(4, rng=random.Random(args.seed + 2))
            refill_work = owner_pool.stats.precomputed * stage_work(
                sk.obfuscate_stages(1)
            )
            packed = encrypt_with_pool(owner_pool, packed_plaintext)
            values.append(packed.value)
            if sk.decrypt(packed) != packed_plaintext:
                raise ReproError("packed encryption round trip failed")

            # Full-width scalars, as in the answer-matrix selection.
            scalars = [rng.randrange(1, pk.n) for _ in range(16)]
            dot_ledger = fastexp.MulLedger()
            dot = hom_dot(scalars, ciphertexts * 2, ledger=dot_ledger)
            values.append(dot.value)

            for c in ciphertexts:
                sk.decrypt_with_path(c, use_crt=True)
            for c in from_pool[:2]:
                sk.decrypt_with_path(c, use_crt=False)
            if [sk.decrypt(c) for c in rerandomized] != [0, 1, 2, 3]:
                raise ReproError("rerandomized ciphertexts decrypted wrongly")

            # The coordinator's own encryptions, at both protocol levels.
            owner_rng = random.Random(args.seed + 3)
            owned = [sk.encrypt(m, rng=owner_rng) for m in range(4)]
            owned.append(sk.encrypt(5, s=2, rng=owner_rng))
            values += [c.value for c in owned]

            return (
                values,
                profiler,
                dot_ledger.muls,
                pool.stats.fast_muls,
                refill_work,
            )

    ambient = fastexp.enabled()
    started = time_module.perf_counter()
    values, profiler, dot_muls, windowed_muls, refill_work = run(ambient)
    suite_seconds = time_module.perf_counter() - started
    other_values, *_ = run(not ambient)
    if values != other_values:
        raise ReproError(
            "fast exponentiation paths changed ciphertext values — the "
            "crypto micro-suite refuses to record a tainted baseline"
        )

    digest = hashlib.sha256(
        b"".join(v.to_bytes((v.bit_length() + 7) // 8 or 1, "big") for v in values)
    ).digest()
    ledger = profiler.to_dict()

    def muls(op_class: str) -> int:
        return ledger.get(op_class, {}).get("bigint_muls", 0)

    metrics = {
        "ops.encrypt.bigint_muls": muls("encrypt") + muls("encrypt.tables"),
        "ops.encrypt_pool.bigint_muls": muls("encrypt.pooled"),
        "ops.rerandomize.bigint_muls": (
            muls("rerandomize") + muls("rerandomize.tables")
        ),
        "ops.dot.bigint_muls": dot_muls,
        "ops.refill_windowed.bigint_muls": windowed_muls,
        "ops.decrypt_crt.bigint_muls": (
            muls("decrypt.crt") + muls("decrypt.crt.tables")
        ),
        "ops.decrypt_generic.bigint_muls": muls("decrypt.generic"),
    }
    metrics["ops.total.bigint_muls"] = sum(metrics.values())
    metrics["ops.refill_crt.mul_work64"] = round(refill_work)
    metrics["ops.encrypt_owner.mul_work64"] = round(
        profiler.profile("encrypt.owner").mul_work
    )
    metrics["answers.digest_mod"] = int.from_bytes(digest[:6], "big")
    metrics["time.suite_seconds"] = round(suite_seconds, 6)
    return metrics


def _cmd_perf_check(args: argparse.Namespace) -> int:
    from repro.bench.recorder import git_sha
    from repro.bench.sentinel import gate_run, render_markdown
    from repro.obs.series import LedgerRecord, RunLedger

    ledger = RunLedger(args.series_dir)
    if args.suite == "crypto":
        workload = {"suite": "crypto", "seed": args.seed}
        runs: list[str] = [f"crypto-{args.keysize}"]
    else:
        workload = {
            "pois": args.pois,
            "n": args.n,
            "d": args.d,
            "delta": args.delta,
            "k": args.k,
            "seed": args.seed,
        }
        runs = list(args.protocols)
    sha = git_sha()
    comparisons = []
    for experiment in runs:
        if args.suite == "crypto":
            metrics = _crypto_micro_metrics(args)
            phases: dict[str, int] = {}
        else:
            metrics, phases = _perf_metrics(experiment, args)
        record = LedgerRecord(
            suite=experiment,
            git_sha=sha,
            metrics=metrics,
            keysize=args.keysize,
            config=workload,
            phases=phases or None,
            source="perf-check",
        )
        comparison = gate_run(ledger, record, accept=args.record)
        comparisons.append(comparison)
        if args.record:
            accepted = ", ".join(comparison.accepted) or "none"
            print(
                f"recorded baseline: {ledger.path(experiment)} "
                f"(accepted: {accepted})"
            )
            continue
        exact = comparison.exact_regressions
        timing = comparison.timing_regressions
        improved = comparison.improved
        verdict = "ok" if not exact else "REGRESSED"
        print(
            f"{experiment:<10} {verdict}: {len(exact)} exact regression(s), "
            f"{len(timing)} timing regression(s), {len(improved)} improvement(s)"
        )
        for delta in exact + timing:
            print(
                f"  regressed {delta.name}: {delta.baseline:g} -> "
                f"{delta.current:g} ({delta.kind})"
            )
        for delta in improved:
            print(
                f"  improved  {delta.name}: {delta.baseline:g} -> "
                f"{delta.current:g}"
            )
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as fh:
            fh.write(render_markdown(comparisons))
        print(f"report: {args.report_out}")
    return 0 if all(c.ok for c in comparisons) else 1


def _cmd_trend(args: argparse.Namespace) -> int:
    import dataclasses

    from repro.obs.series import RunLedger, records_from_text
    from repro.obs.trend import check_ledger, render_check, render_trends

    ledger = RunLedger(args.series_dir)
    appended = 0
    for source in args.append or []:
        with open(source, encoding="utf-8") as fh:
            records = records_from_text(fh.read())
        if not records:
            raise ReproError(f"{source}: no appendable records found")
        for record in records:
            if args.accept:
                record = dataclasses.replace(
                    record,
                    accepted=tuple(
                        sorted(set(record.accepted) | set(args.accept))
                    ),
                )
            stored, was_new = ledger.append(
                record, allow_truncated_tail=args.allow_truncated
            )
            state = "appended" if was_new else "already recorded"
            print(
                f"{state}: {stored.suite} @ {stored.git_sha[:12]} "
                f"(config {stored.config_digest}, seq {stored.seq})"
            )
            appended += 1 if was_new else 0
    if args.append:
        print(f"{appended} new record(s) under {args.series_dir}")
    if args.report is not None:
        dashboard = render_trends(ledger, suites=args.suite, window=args.window)
        with open(args.report, "w", encoding="utf-8") as fh:
            fh.write(dashboard)
        print(f"trend dashboard: {args.report}")
    if args.check:
        check = check_ledger(ledger, suites=args.suite, window=args.window)
        print(render_check(check))
        return 0 if check.ok else 1
    if not args.append and args.report is None:
        # Bare `repro trend`: print the dashboard instead of writing it.
        print(render_trends(ledger, suites=args.suite, window=args.window))
    return 0


_COMMANDS = {
    "info": _cmd_info,
    "query": _cmd_query,
    "attack": _cmd_attack,
    "solve": _cmd_solve,
    "serve-bench": _cmd_serve_bench,
    "trace": _cmd_trace,
    "analyze": _cmd_analyze,
    "perf-check": _cmd_perf_check,
    "trend": _cmd_trend,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
