"""Ablation: vectorized answer sanitation vs the scalar reference.

DESIGN.md decision 1 and "Sanitation hot path": the LSP grows the prefix
over one shared Monte-Carlo batch with numpy, using cheap sample distances
and an exact re-check band, instead of re-testing every prefix length with
scalar loops.  This bench measures the speed-up on the benchmark workload
and re-verifies that both paths truncate the answer identically.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.sanitize import AnswerSanitizer
from repro.stats.hypothesis import SanitationTestPlan

SAMPLES = 2000  # scalar path is O(N_H * n * k^2); keep the reference feasible


def test_ablation_sanitize_vectorized_vs_scalar(lsp, settings, recorder, benchmark):
    plan = SanitationTestPlan.from_parameters(0.05, n_samples_override=SAMPLES)
    sanitizer = AnswerSanitizer(
        lsp.space, lsp.aggregate, plan, np.random.default_rng(1)
    )
    group = lsp.space.sample_points(8, np.random.default_rng(settings.seed))
    pois = lsp.engine.query(8, group)
    xs, ys = lsp.space.sample_arrays(SAMPLES, np.random.default_rng(2))

    start = time.perf_counter()
    vectorized = sanitizer._sanitize_incremental(pois, group, xs, ys)
    vectorized_time = time.perf_counter() - start

    start = time.perf_counter()
    scalar = sanitizer.sanitize_scalar(pois, group, xs, ys)
    scalar_time = time.perf_counter() - start

    # The vectorized path stops at the first unsafe length; the reference
    # tests every target to its own, so only these two must agree.
    assert vectorized.prefix == scalar.prefix
    assert min(vectorized.safe_lengths) == min(scalar.safe_lengths)
    speedup = scalar_time / vectorized_time
    recorder.record(
        "ablation_sanitize",
        "Ablation: sanitation implementation (N_H=2000, n=8, k=8)",
        "variant",
        ["vectorized (paper's incremental test)", "scalar"],
        {
            "time": [f"{vectorized_time * 1000:.2f} ms", f"{scalar_time * 1000:.2f} ms"],
            "prefix": [str(len(vectorized.prefix)), str(len(scalar.prefix))],
        },
        notes=(
            f"vectorized-vs-scalar speedup {speedup:.0f}x; the vectorized "
            f"path also skips POI columns past the unsafe prefix (why Fig 6f "
            f"flattens at large k); prefixes identical"
        ),
    )
    assert speedup > 5  # the vectorized path must matter

    benchmark.pedantic(
        lambda: sanitizer._sanitize_incremental(pois, group, xs, ys),
        rounds=3,
        iterations=1,
    )
