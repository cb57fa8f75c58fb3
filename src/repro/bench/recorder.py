"""Persistence for benchmark series: print to stdout and append to files.

``pytest`` captures stdout, so the figure benches also write every series
table into ``benchmarks/results/<experiment>.txt``; EXPERIMENTS.md quotes
those files.  Each run overwrites its experiment's file (the recorder
truncates on first write per experiment per session).

Structured results go to ``BENCH_<experiment>.json`` via
:meth:`SeriesRecorder.record_json`.  Every JSON document is stamped with
its provenance — the git commit it ran at, the Paillier key size, and the
full configuration dict — so a result file found months later is
self-describing instead of guess-what-produced-this.  The recorder writes
nothing else: the run ledger under ``benchmarks/series/`` only grows
through the sentinel or an explicit ``repro trend --append``.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path
from typing import Mapping, Sequence

from repro.bench.harness import print_series_table
from repro.errors import ReproError

#: Version of the ``BENCH_*.json`` document layout.  v1 documents carried
#: no version stamp; v2 added ``schema_version`` and the optional
#: ``metrics`` observability snapshot.
RECORD_SCHEMA_VERSION = 2


def git_sha(cwd: str | Path | None = None) -> str:
    """The current commit hash, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


class SeriesRecorder:
    """Writes experiment series to ``<directory>/<experiment>.txt``."""

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._opened: set[str] = set()

    def _path(self, experiment: str) -> Path:
        return self.directory / f"{experiment}.txt"

    def record(
        self,
        experiment: str,
        title: str,
        x_label: str,
        xs: Sequence,
        series: dict[str, list[str]],
        notes: str | None = None,
    ) -> None:
        """Print one series table and append it to the experiment's file."""
        print_series_table(title, x_label, xs, series)
        mode = "a" if experiment in self._opened else "w"
        self._opened.add(experiment)
        with open(self._path(experiment), mode) as handle:
            handle.write(f"=== {title} ===\n")
            handle.write(f"{x_label}: {list(xs)}\n")
            for label, values in series.items():
                handle.write(f"{label}: {values}\n")
            if notes:
                handle.write(f"note: {notes}\n")
            handle.write("\n")

    def record_json(
        self,
        experiment: str,
        results: Mapping | Sequence,
        keysize: int | None = None,
        config: Mapping | None = None,
        metrics: Mapping | None = None,
        force: bool = False,
    ) -> Path:
        """Write ``BENCH_<experiment>.json`` with a full provenance stamp.

        ``results`` is the experiment's payload (must be JSON-encodable);
        ``keysize`` and ``config`` record the parameters that produced it,
        and ``metrics`` (an observability snapshot dict, e.g.
        ``MetricsSnapshot.to_dict()``) rides along when the run was
        traced.  The file is overwritten wholesale — a BENCH json always
        describes exactly one run — **except** across schema versions: a
        record written by a different library generation is refused
        (``force=True`` overrides) so a stale document is never silently
        replaced by one with an incompatible shape, or vice versa.
        """
        path = self.directory / f"BENCH_{experiment}.json"
        if path.exists() and not force:
            try:
                with open(path, encoding="utf-8") as handle:
                    existing = json.load(handle).get("schema_version", 1)
            except (json.JSONDecodeError, OSError, AttributeError):
                existing = None
            if existing is not None and existing != RECORD_SCHEMA_VERSION:
                raise ReproError(
                    f"{path} holds a schema v{existing} record; this library "
                    f"writes v{RECORD_SCHEMA_VERSION}.  Refusing to silently "
                    "overwrite — keep it in the run ledger first with "
                    "`repro trend --append`, then delete the file or pass "
                    "force=True."
                )
        document = {
            "schema_version": RECORD_SCHEMA_VERSION,
            "experiment": experiment,
            "git_sha": git_sha(self.directory),
            "keysize": keysize,
            "config": dict(config) if config is not None else {},
            "results": results,
        }
        if metrics is not None:
            document["metrics"] = dict(metrics)
        with open(path, "w") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    def note(self, experiment: str, text: str) -> None:
        """Append a free-form note line."""
        mode = "a" if experiment in self._opened else "w"
        self._opened.add(experiment)
        with open(self._path(experiment), mode) as handle:
            handle.write(text.rstrip() + "\n")
        print(text)
