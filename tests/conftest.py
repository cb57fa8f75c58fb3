"""Shared fixtures.

Key sizes here are deliberately small (128/256 bits): prime generation and
ciphertext exponentiation dominate test time, and none of the tested
properties depend on the modulus size.  Production defaults (512/1024) are
exercised by dedicated slow-marked tests and the benchmarks.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.core.config import PPGNNConfig
from repro.core.lsp import LSPServer
from repro.crypto.paillier import KeyPair, generate_keypair
from repro.datasets.poi import POI
from repro.datasets.synthetic import clustered_pois, uniform_pois
from repro.geometry.space import LocationSpace


@pytest.fixture(scope="session")
def keypair() -> KeyPair:
    """A cached 256-bit key pair shared by crypto tests."""
    return generate_keypair(256, seed=12345)


@pytest.fixture(scope="session")
def tiny_keypair() -> KeyPair:
    """A 128-bit pair for tests that stress many operations."""
    return generate_keypair(128, seed=54321)


@pytest.fixture(scope="session")
def space() -> LocationSpace:
    return LocationSpace.unit_square()


@pytest.fixture(scope="session")
def small_pois(space) -> list[POI]:
    """200 uniform POIs for index/query unit tests."""
    return uniform_pois(200, space, seed=7)


@pytest.fixture(scope="session")
def medium_pois(space) -> list[POI]:
    """2000 clustered POIs for protocol integration tests."""
    return clustered_pois(2000, space, seed=11)


@pytest.fixture()
def lsp(medium_pois) -> LSPServer:
    """A fresh LSP per test (sanitation RNG state must not leak across tests)."""
    return LSPServer(medium_pois, sanitation_samples=1500, seed=99)


@pytest.fixture(scope="session")
def fast_config() -> PPGNNConfig:
    """Small parameters that keep a full protocol round under ~100 ms."""
    return PPGNNConfig(
        d=6,
        delta=18,
        k=6,
        keysize=128,
        key_seed=7,
    )


@pytest.fixture()
def rng() -> random.Random:
    return random.Random(2024)


@pytest.fixture()
def nprng() -> np.random.Generator:
    return np.random.default_rng(2024)
