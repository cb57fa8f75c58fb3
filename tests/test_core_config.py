"""Tests for PPGNNConfig validation and derivation."""

import numpy as np
import pytest

from repro.core.config import PPGNNConfig
from repro.errors import ConfigurationError


class TestValidation:
    def test_defaults_match_table3(self):
        cfg = PPGNNConfig()
        assert cfg.d == 25 and cfg.delta == 100
        assert cfg.k == 8 and cfg.theta0 == 0.05

    def test_d_must_exceed_one(self):
        with pytest.raises(ConfigurationError):
            PPGNNConfig(d=1)

    def test_delta_ge_d(self):
        with pytest.raises(ConfigurationError):
            PPGNNConfig(d=25, delta=10)

    def test_k_positive(self):
        with pytest.raises(ConfigurationError):
            PPGNNConfig(k=0)

    @pytest.mark.parametrize(
        "field",
        [
            {"k": 2.5},
            {"d": 2.5},
            {"keysize": 128.0},
            {"delta": 6.5},
            {"k": True},
        ],
        ids=lambda field: "-".join(f"{k}={v!r}" for k, v in field.items()),
    )
    def test_integer_fields_reject_floats_and_bools(self, field):
        with pytest.raises(ConfigurationError, match="must be an integer >= 1"):
            PPGNNConfig(**field)

    def test_numpy_integers_accepted(self):
        cfg = PPGNNConfig(d=np.int64(4), delta=np.int32(8), k=np.int64(3), keysize=np.int64(128))
        assert (cfg.d, cfg.delta, cfg.k, cfg.keysize) == (4, 8, 3, 128)

    def test_theta0_domain(self):
        with pytest.raises(ConfigurationError):
            PPGNNConfig(theta0=0.0)
        with pytest.raises(ConfigurationError):
            PPGNNConfig(theta0=1.5)
        assert PPGNNConfig(theta0=1.0).theta0 == 1.0

    def test_sanitize_requires_theta0(self):
        with pytest.raises(ConfigurationError):
            PPGNNConfig(theta0=None, sanitize=True)
        assert PPGNNConfig(theta0=None, sanitize=False).theta0 is None

    def test_keysize_floor(self):
        with pytest.raises(ConfigurationError):
            PPGNNConfig(keysize=32)


class TestDerivedConfigs:
    def test_for_single_user(self):
        cfg = PPGNNConfig(d=25, delta=100).for_single_user()
        assert cfg.delta == cfg.d == 25
        assert cfg.theta0 is None and not cfg.sanitize

    def test_without_sanitation(self):
        cfg = PPGNNConfig().without_sanitation()
        assert not cfg.sanitize
        assert cfg.theta0 == 0.05  # parameter survives; protocol ignores it

    def test_frozen(self):
        with pytest.raises(AttributeError):
            PPGNNConfig().d = 30
