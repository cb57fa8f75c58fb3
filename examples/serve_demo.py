"""A serving fleet: many groups, one LSP, one FIFO queue and shared caches.

Six query groups fire a mixed PPGNN / PPGNN-OPT / Naive workload at one
provider through the :mod:`repro.serve` engine.  A third of the queries
re-issue an earlier query verbatim (the "where shall we meet *tonight*"
repeat), which the LSP-side kNN cache answers without re-searching; every
indicator encryption spends a precomputed nonce from the shared pool.
The timeline is simulated deterministically, so the printed report is
identical on every run — only the wall-clock line is real.

Run:  python examples/serve_demo.py
"""

from __future__ import annotations

from repro.core.config import PPGNNConfig
from repro.core.lsp import LSPServer
from repro.datasets import load_sequoia
from repro.serve import ServeConfig, ServeEngine, WorkloadSpec, generate_workload


def main() -> None:
    lsp = LSPServer(load_sequoia(2_000), sanitation_samples=16, seed=4)
    config = PPGNNConfig(d=4, delta=8, k=4, keysize=192, key_seed=7)
    spec = WorkloadSpec(
        queries=24,
        rate_qps=12.0,
        protocol_mix={"ppgnn": 2.0, "ppgnn-opt": 1.0, "naive": 1.0},
        group_size_mix={2: 1.0, 3: 1.0},
        k_mix={4: 1.0},
        tenants=("friends", "colleagues"),
        groups=6,
        repeat_fraction=0.35,
        seed=42,
    )
    serve = ServeConfig(workers=2, queue_capacity=16, knn_cache_size=128)

    workload = generate_workload(spec, lsp.space)
    report = ServeEngine(lsp, config, serve).run(workload)

    print(
        f"served {report.completed}/{report.queries} queries on "
        f"{serve.workers} workers"
    )
    print(
        f"simulated: {report.throughput_qps:.2f} qps, latency "
        f"p50={report.latency_p50 * 1e3:.1f} ms "
        f"p95={report.latency_p95 * 1e3:.1f} ms, "
        f"peak queue depth {report.max_queue_depth}"
    )
    print(
        f"kNN cache: {report.cache['hits']} hits / "
        f"{report.cache['misses']} misses "
        f"({report.cache['hit_rate']:.0%} hit rate)"
    )
    print(
        f"nonce pool: {report.pool['pooled']} pooled factors spent, "
        f"{report.pool['dry']} dry takes"
    )
    for tenant, entry in report.per_tenant.items():
        print(f"  {tenant}: {entry['completed']} completed")
    print(f"(wall-clock: {report.wall_seconds:.2f} s real execution)")


if __name__ == "__main__":
    main()
