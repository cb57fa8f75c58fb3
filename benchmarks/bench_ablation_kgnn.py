"""Ablation: the plaintext kGNN black box — MBM vs SPM vs MQM ([24]).

The paper instantiates C_q with MBM; SPM and MQM are the other two
algorithms of Papadias et al.  This bench times all three on the benchmark
database across group spreads (tight groups favour SPM's centroid stream;
spread groups favour MBM's aggregate pruning; MQM pays one stream per
user), and verifies they return identical answers.  A fourth row,
``mbm-batched``, answers all of a spread's groups in one
``mbm_kgnn_many`` call, the way the LSP answers one request's δ′
candidates.  Next to the time it records each row's work per group from
its ``IndexCounters``: index nodes visited and leaf entries scored.
"""

from __future__ import annotations

import time

import numpy as np

from repro.geometry.point import Point
from repro.gnn.mbm import mbm_kgnn, mbm_kgnn_many
from repro.gnn.mqm import mqm_kgnn
from repro.gnn.spm import spm_kgnn
from repro.index.base import IndexCounters

ALGORITHMS = {"mbm": mbm_kgnn, "spm": spm_kgnn, "mqm": mqm_kgnn}
#: Every row: the one-group algorithms called per group, and MBM's batch.
ROWS = (*ALGORITHMS, "mbm-batched")
SPREADS = [0.02, 0.1, 0.3, 1.0]  # group diameter as a fraction of the space
QUERIES_PER_POINT = 8
N = 8
K = 8


def _group(space, spread: float, rng) -> list[Point]:
    cx, cy = rng.uniform(spread / 2, 1 - spread / 2, 2)
    xs = np.clip(rng.uniform(cx - spread / 2, cx + spread / 2, N), 0, 1)
    ys = np.clip(rng.uniform(cy - spread / 2, cy + spread / 2, N), 0, 1)
    return [Point(float(x), float(y)) for x, y in zip(xs, ys, strict=True)]


def test_ablation_kgnn_algorithms(lsp, settings, recorder, benchmark):
    tree = lsp.engine.tree
    aggregate = lsp.aggregate
    times = {name: [] for name in ROWS}
    nodes = {name: [] for name in ROWS}
    scored = {name: [] for name in ROWS}
    tree.flat_view()  # built once per index version, outside the timings
    for spread in SPREADS:
        rng = np.random.default_rng(settings.seed)
        groups = [_group(lsp.space, spread, rng) for _ in range(QUERIES_PER_POINT)]
        answers = {}
        for name in ROWS:
            counters = IndexCounters()
            start = time.perf_counter()
            if name == "mbm-batched":
                results = mbm_kgnn_many(tree, groups, K, aggregate, counters)
            else:
                algorithm = ALGORITHMS[name]
                results = [algorithm(tree, group, K, aggregate, counters) for group in groups]
            times[name].append((time.perf_counter() - start) / len(groups))
            answers[name] = [[item.poi_id for _, item, _ in r] for r in results]
            nodes[name].append(counters.nodes_visited / len(groups))
            scored[name].append(counters.candidates_scored / len(groups))
        assert answers["mbm"] == answers["spm"] == answers["mqm"] == answers["mbm-batched"]

    title = f"group spread (n={N}, k={K}, {QUERIES_PER_POINT} groups per spread)"
    for unit, table, fmt, notes in (
        (
            "time per group",
            times,
            lambda t: f"{t * 1000:.2f} ms",
            "all four return identical answers; MBM is the paper's C_q, and "
            "mbm-batched walks the spread's groups in one call",
        ),
        ("index nodes visited per group", nodes, lambda v: f"{v:.1f}", None),
        ("entries scored per group", scored, lambda v: f"{v:.1f}", None),
    ):
        recorder.record(
            "ablation_kgnn",
            f"Ablation: kGNN {unit} vs {title}",
            "spread",
            SPREADS,
            {name: [fmt(v) for v in series] for name, series in table.items()},
            notes=notes,
        )

    group = _group(lsp.space, 0.1, np.random.default_rng(1))
    benchmark.pedantic(
        lambda: mbm_kgnn(tree, group, K, aggregate), rounds=3, iterations=1
    )
