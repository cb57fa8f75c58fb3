"""Protocol comparison on a realistic group-meeting workload.

Runs the same query with the three protocol variants the paper evaluates —
PPGNN, PPGNN-OPT, and the Naive solution — plus PPGNN-NAS (no collusion
defense), and prints a side-by-side cost/answer comparison.  Also shows a
`max`-aggregate query (the troop-gathering semantics of Section 2.1).

Run:  python examples/group_meeting.py
"""

from __future__ import annotations

import numpy as np

from repro import (
    LSPServer,
    PPGNNConfig,
    random_group,
    run_naive,
    run_ppgnn,
    run_ppgnn_opt,
)
from repro.bench.harness import format_bytes, format_seconds
from repro.datasets import load_sequoia


def describe(label, result, lsp):
    report = result.report
    names = [lsp.engine.poi_by_id(a.poi_id).name for a in result.answers]
    print(f"  {label:<10} comm {format_bytes(report.total_comm_bytes):>10}   "
          f"user {format_seconds(report.user_cost_seconds):>9}   "
          f"lsp {format_seconds(report.lsp_cost_seconds):>9}   "
          f"answers {names}")


def main() -> None:
    pois = load_sequoia(10_000)
    lsp = LSPServer(pois, seed=3)
    group = random_group(8, lsp.space, np.random.default_rng(11))
    config = PPGNNConfig(d=25, delta=100, k=8, theta0=0.05, keysize=256)

    print(f"Group of {len(group)} users; d={config.d}, delta={config.delta}, "
          f"k={config.k}, theta0={config.theta0}\n")

    print("Sum aggregate (minimize total travel):")
    lsp.reset_rng(1)
    describe("PPGNN", run_ppgnn(lsp, group, config, seed=5), lsp)
    lsp.reset_rng(1)
    describe("PPGNN-OPT", run_ppgnn_opt(lsp, group, config, seed=5), lsp)
    lsp.reset_rng(1)
    describe("Naive", run_naive(lsp, group, config, seed=5), lsp)
    describe("NAS", run_ppgnn(lsp, group, config.without_sanitation(), seed=5), lsp)
    print("  (PPGNN-OPT: least communication; Naive: most — every user ships")
    print("   delta locations.  NAS returns all k POIs but drops Privacy IV.)")

    print("\nMax aggregate (minimize the farthest user's travel):")
    max_lsp = LSPServer(pois, aggregate_name="max", seed=3)
    max_config = PPGNNConfig(d=25, delta=100, k=4, theta0=0.05, keysize=256)
    describe("PPGNN", run_ppgnn(max_lsp, group, max_config, seed=6), max_lsp)


if __name__ == "__main__":
    main()
