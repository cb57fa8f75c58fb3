"""Shared benchmark fixtures.

Every experiment runs against one session-wide LSP built over the Sequoia
surrogate at the scale chosen via REPRO_BENCH_* environment variables (see
:class:`repro.bench.harness.BenchSettings`).  Figure series are printed and
persisted under ``benchmarks/results/``.
"""

from __future__ import annotations

import sys
from pathlib import Path

# Make ``pytest benchmarks/`` work from the repo root *and* from inside
# ``benchmarks/`` itself: the library lives in ``../src`` relative to this
# file, which a relative ``PYTHONPATH=src`` only covers from the root.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest  # noqa: E402

from repro.bench.harness import BenchSettings  # noqa: E402
from repro.bench.recorder import SeriesRecorder  # noqa: E402
from repro.bench.sentinel import BenchSentinel  # noqa: E402
from repro.core.config import PPGNNConfig  # noqa: E402
from repro.core.lsp import LSPServer  # noqa: E402
from repro.datasets.sequoia import load_sequoia  # noqa: E402


@pytest.fixture(scope="session")
def settings() -> BenchSettings:
    return BenchSettings.from_env()


@pytest.fixture(scope="session")
def pois(settings):
    return load_sequoia(settings.pois)


@pytest.fixture(scope="session")
def lsp(settings, pois) -> LSPServer:
    return LSPServer(
        pois,
        sanitation_samples=settings.sanitation_samples,
        seed=settings.seed,
    )


@pytest.fixture(scope="session")
def recorder() -> SeriesRecorder:
    return SeriesRecorder(Path(__file__).parent / "results")


@pytest.fixture(scope="session")
def sentinel() -> BenchSentinel:
    """The performance sentinel, armed via REPRO_BENCH_* env variables.

    Disarmed (record=False, check=False) unless
    ``REPRO_BENCH_RECORD_BASELINE`` / ``REPRO_BENCH_CHECK_BASELINE`` is
    set, so plain benchmark runs never fail on baseline drift.  Baselines
    are the lineage heads of the run ledger under ``benchmarks/series/``.
    """
    return BenchSentinel.from_env(Path(__file__).parent / "series")


def make_config(settings: BenchSettings, **overrides) -> PPGNNConfig:
    """Paper Table 3 defaults at the session's key size."""
    parameters = dict(
        d=25,
        delta=100,
        k=8,
        theta0=0.05,
        keysize=settings.keysize,
        key_seed=settings.seed,
    )
    parameters.update(overrides)
    return PPGNNConfig(**parameters)


@pytest.fixture(scope="session")
def config_factory(settings):
    """Build a config with Table 3 defaults plus per-experiment overrides."""

    def factory(**overrides) -> PPGNNConfig:
        return make_config(settings, **overrides)

    return factory
