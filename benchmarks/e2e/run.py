"""End-to-end benchmark of the PPGNN reproduction.

Run from the repository root::

    python3 benchmarks/e2e/run.py                    # all workloads, e2e metrics
    python3 benchmarks/e2e/run.py --trace 1          # all workloads, per-layer metrics
    python3 benchmarks/e2e/run.py --workload group-knn --seed 7 --seconds 20 --trace 0
    python3 benchmarks/e2e/run.py compare BASE_DIR HEAD_DIR

With ``--workload all`` (the default) every workload runs in its own
single-threaded process, one after another, and a table of all metrics is
printed.  With one named workload the run happens in this process and the
last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.  Each run also writes
its full record (and, when traced, its spans as JSONL) to ``--out``;
``compare`` reads two such directories.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 20180326
DEFAULT_SECONDS = 20
WORKLOAD_NAMES = ("group-knn", "single-crypto", "opt-sanitize", "serve-repeat")
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description="PPGNN end-to-end benchmark")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("paper", "smoke"), default="paper")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    return parser


def _prepare() -> None:
    """Pin numeric libraries to one thread and put the library on the path."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: the library is missing ({SRC / 'repro'}); run from a full checkout")
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    sys.path.insert(0, str(SRC))


def run_one(args) -> int:
    from workloads import run_workload

    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-t{args.trace}-s{args.seed}-{time.time_ns()}"
    record = run_workload(
        args.workload,
        args.scale,
        args.seed,
        args.seconds,
        bool(args.trace),
        spans_path=args.out / f"{stem}.spans.jsonl" if args.trace else None,
    )
    (args.out / f"{stem}.json").write_text(json.dumps(record))
    if "layer_table" in record:
        print(record["layer_table"])
    print(json.dumps({"diagnostics": record["diagnostics"]}))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


def run_all(args) -> int:
    """Each workload in a fresh process, one after another."""
    status = 0
    results = {}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, str(HERE / "run.py"),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
            "--scale", args.scale,
            "--out", str(args.out),
        ]
        child = subprocess.run(command, capture_output=True, text=True, timeout=900)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or not lines:
            status = 1
            sys.stderr.write(child.stderr)
        if not lines:
            continue
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    print(f"\n{'workload':<14} {'metric':<26} {'value':>16} unit")
    for name, result in results.items():
        for metric, entry in result["metrics"].items():
            print(f"{name:<14} {metric:<26} {entry['value']:>16.6g} {entry['unit']}")
        print(f"{name:<14} {'failed/attempted':<26} {result['failed']:>8}/{result['attempted']:<7}")
    print(json.dumps({"correct": status == 0, "workloads": results}))
    return status


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        from compare import main as compare_main

        return compare_main(argv[1:], ROOT / "BENCHMARK.json")
    args = _parser().parse_args(argv)
    _prepare()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
