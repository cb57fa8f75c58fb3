"""Serving-engine throughput with the shared caches on.

Runs one mixed workload through :class:`repro.serve.ServeEngine` at the
paper-adjacent 512-bit key size and records the serving report, in the
shape ``repro serve-bench --record`` writes, plus its metrics snapshot to
``BENCH_serve.json`` (git-SHA/keysize/config stamped).  The buckets run
one after another in this process; wall-clock throughput is recorded,
not asserted.
"""

from __future__ import annotations

import os

import pytest

from repro.serve import ServeConfig, ServeEngine, WorkloadSpec, generate_workload

KEYSIZE = 512
WORKERS = 4

SPEC = WorkloadSpec(
    queries=24,
    rate_qps=50.0,
    protocol_mix={"ppgnn": 2.0, "ppgnn-opt": 1.0, "naive": 1.0},
    group_size_mix={2: 1.0, 3: 1.0},
    k_mix={4: 1.0},
    tenants=("tenant-0", "tenant-1"),
    groups=8,
    repeat_fraction=0.35,
    seed=20180326,
)


@pytest.fixture(scope="module")
def serve_run(lsp, settings):
    from conftest import make_config

    config = make_config(settings, d=4, delta=8, k=4, keysize=KEYSIZE)
    serve = ServeConfig(workers=WORKERS, knn_cache_size=128, obs=True)
    report = ServeEngine(lsp, config, serve).run(generate_workload(SPEC, lsp.space))
    return config, report


def test_serve_throughput(serve_run, recorder, sentinel):
    config, report = serve_run
    recorder.record_json(
        "serve",
        report.to_dict(include_wall=True),
        keysize=KEYSIZE,
        config={
            "d": config.d,
            "delta": config.delta,
            "k": config.k,
            "workers": WORKERS,
            "repeat_fraction": SPEC.repeat_fraction,
            "seed": SPEC.seed,
        },
        metrics=(report.obs or {}).get("metrics"),
    )
    # Baseline gate: exact counters (ops, bytes, cache hits) must not
    # regress when the sentinel is armed via REPRO_BENCH_CHECK_BASELINE.
    from repro.bench.sentinel import serving_report_metrics

    sentinel.gate(
        "serve",
        serving_report_metrics(report.to_dict(include_wall=False)),
        keysize=KEYSIZE,
        config={"queries": SPEC.queries, "seed": SPEC.seed, "workers": WORKERS},
    )
    recorder.note(
        "serve",
        f"{report.wall_qps:.2f} qps wall ({report.completed} queries in "
        f"{report.wall_seconds:.2f} s) on {os.cpu_count() or 1} cores",
    )

    assert report.completed == SPEC.queries
    assert report.cache["hits"] > 0  # repeats actually hit the kNN cache
    assert report.pool["pooled"] > 0  # indicators spent precomputed nonces


def test_serve_report_deterministic(lsp, settings):
    from conftest import make_config

    config = make_config(settings, d=4, delta=8, k=4, keysize=KEYSIZE)
    serve = ServeConfig(workers=WORKERS, knn_cache_size=128)
    one = ServeEngine(lsp, config, serve).run(generate_workload(SPEC, lsp.space))
    two = ServeEngine(lsp, config, serve).run(generate_workload(SPEC, lsp.space))
    assert one.to_dict() == two.to_dict()
