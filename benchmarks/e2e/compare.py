"""Compare two sets of benchmark runs metric by metric.

    python3 benchmarks/e2e/run.py compare BASE HEAD [--trace 1]

``BASE`` and ``HEAD`` are directories of run records, the ``*.json`` files
``run.py`` writes to ``--out``.  Runs pair up by workload and seed.  For
each workload and metric the table shows both sides' medians and
quartiles, how many pairs HEAD wins, and a verdict against the metric's
bound in ``BENCHMARK.json``:

- ``improved``: HEAD wins at least nine tenths of the pairs and the
  medians differ, in HEAD's favour, by more than BASE's quartile spread;
- ``unresolved``: either side's quartile spread is wider than the bound,
  and not every HEAD run beats every BASE run;
- ``worse``: HEAD's median is worse than BASE's by more than the bound;
- ``no worse``: otherwise.

Per-layer metrics (``--trace 1``) have no bound and get a verdict only
when HEAD improved.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path


def load_runs(directory: Path, trace: int) -> dict[str, list[dict]]:
    """Run records by workload, in the order they were written."""
    runs: dict[str, list[dict]] = defaultdict(list)
    for path in sorted(directory.glob("*.json"), key=lambda p: p.stem.rsplit("-", 1)[-1]):
        record = json.loads(path.read_text())
        if record.get("trace") == trace:
            runs[record["workload"]].append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pairs(base: list[dict], head: list[dict]) -> list[tuple[dict, dict]]:
    """Runs of the same seed, matched in the order they ran."""
    by_seed: dict[int, list[dict]] = defaultdict(list)
    for record in base:
        by_seed[record["seed"]].append(record)
    matched = []
    for record in head:
        if by_seed[record["seed"]]:
            matched.append((by_seed[record["seed"]].pop(0), record))
    return matched


def verdict(
    base: list[float], head: list[float], wins: int, paired: int, better: str, bound: float | None
) -> str:
    sign = 1.0 if better == "lower" else -1.0
    (b1, bm, b3), (h1, hm, h3) = quartiles(base), quartiles(head)
    gain = sign * (bm - hm)  # positive when HEAD is better
    if paired and wins >= 0.9 * paired and gain > b3 - b1:
        return "improved"
    if bound is None:
        return "-"
    spread = max((b3 - b1) / abs(bm) if bm else 0.0, (h3 - h1) / abs(hm) if hm else 0.0)
    every_run_better = all(sign * (b - h) > 0 for b in base for h in head)
    if spread > bound and not every_run_better:
        return "unresolved"
    if -gain > bound * abs(bm):
        return "worse"
    return "no worse"


def main(argv: list[str], benchmark_json: Path) -> int:
    parser = argparse.ArgumentParser(prog="run.py compare", description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("head", type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    declared = json.loads(benchmark_json.read_text())
    metrics = declared["end_to_end"] if args.trace == 0 else declared["per_layer"]
    base_runs, head_runs = load_runs(args.base, args.trace), load_runs(args.head, args.trace)
    worse = False
    print(
        f"{'workload':<14} {'metric':<26} {'base q1/med/q3':>32} "
        f"{'head q1/med/q3':>32} {'wins':>7}  verdict"
    )
    for workload in sorted(set(base_runs) & set(head_runs)):
        base, head = base_runs[workload], head_runs[workload]
        matched = pairs(base, head)
        for metric in metrics:
            name = metric["name"]
            b = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
            h = [r["metrics"][name]["value"] for r in head if name in r["metrics"]]
            if not b or not h:
                continue
            sign = 1.0 if metric["better"] == "lower" else -1.0
            wins = sum(
                sign * (pb["metrics"][name]["value"] - ph["metrics"][name]["value"]) > 0
                for pb, ph in matched
            )
            result = verdict(b, h, wins, len(matched), metric["better"], metric.get("bound"))
            worse |= result == "worse"
            print(
                f"{workload:<14} {name:<26} "
                f"{'/'.join(f'{v:.4g}' for v in quartiles(b)):>32} "
                f"{'/'.join(f'{v:.4g}' for v in quartiles(h)):>32} "
                f"{wins:>3}/{len(matched):<3}  {result}"
            )
        failed_base = sum(r["failed"] for r in base)
        failed_head = sum(r["failed"] for r in head)
        print(f"{workload:<14} {'failed operations':<26} {failed_base:>32} {failed_head:>32}")
        worse |= failed_head > failed_base
    return 1 if worse else 0
