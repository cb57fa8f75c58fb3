"""Benchmark harness utilities.

The actual experiments live in ``benchmarks/`` (one module per paper table
or figure); this package holds the shared machinery: environment-tunable
settings, cost measurement over repeated protocol runs, and plain-text
table rendering that prints the same series the paper plots.
"""

from repro.bench.harness import (
    BenchSettings,
    MeasuredCosts,
    average_runs,
    format_bytes,
    format_seconds,
    measure_protocol,
    print_series_table,
)
from repro.bench.sentinel import (
    BaselineComparison,
    BenchSentinel,
    gate_run,
    render_markdown,
    serving_report_metrics,
)

__all__ = [
    "BaselineComparison",
    "BenchSentinel",
    "BenchSettings",
    "MeasuredCosts",
    "average_runs",
    "format_bytes",
    "format_seconds",
    "gate_run",
    "measure_protocol",
    "print_series_table",
    "render_markdown",
    "serving_report_metrics",
]
