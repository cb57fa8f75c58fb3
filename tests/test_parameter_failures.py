"""Failure paths for user-facing parameter mistakes across the stack."""

import numpy as np
import pytest

from repro.core.config import PPGNNConfig
from repro.core.group import random_group, run_ppgnn
from repro.errors import ConfigurationError, InfeasibleError


class TestProtocolParameterFailures:
    def test_infeasible_delta_surfaces_clearly(self, lsp):
        """delta > d^n cannot be partitioned; the run must fail with the
        paper's remedy (pick a larger d) in the message."""
        cfg = PPGNNConfig(
            d=3, delta=100, k=3, keysize=128, sanitize=False,
            key_seed=1,
        )
        group = random_group(2, lsp.space, np.random.default_rng(1))  # 3^2 < 100
        with pytest.raises(InfeasibleError, match="larger d"):
            run_ppgnn(lsp, group, cfg, seed=1)

    def test_same_delta_feasible_with_more_users(self, lsp):
        """The identical (d, delta) succeeds once n makes d^n large enough."""
        cfg = PPGNNConfig(
            d=3, delta=100, k=3, keysize=128, sanitize=False,
            key_seed=1,
        )
        group = random_group(5, lsp.space, np.random.default_rng(2))  # 3^5 = 243
        result = run_ppgnn(lsp, group, cfg, seed=2)
        assert result.delta_prime >= 100

    def test_user_outside_space_rejected(self, lsp, fast_config):
        from repro.geometry.point import Point

        group = [Point(5.0, 5.0), Point(0.5, 0.5)]
        with pytest.raises(ConfigurationError, match="outside"):
            run_ppgnn(lsp, group, fast_config, seed=3)

    def test_k_of_zero_rejected_at_config(self):
        with pytest.raises(ConfigurationError):
            PPGNNConfig(k=0)

    def test_keysize_too_small_for_answers(self, lsp):
        """A 64-bit modulus cannot hold even one POI slot; the codec must
        refuse before any ciphertext is built."""
        with pytest.raises(ConfigurationError):
            PPGNNConfig(d=4, delta=8, k=2, keysize=32)

    def test_group_larger_than_database_is_fine(self, lsp, fast_config):
        """n has no upper bound tied to the database; only k is capped."""
        group = random_group(12, lsp.space, np.random.default_rng(4))
        result = run_ppgnn(
            lsp, group, fast_config.without_sanitation(), seed=4
        )
        assert len(result.answers) == fast_config.k
