"""Tests for PPGNNConfig validation and derivation."""

import numpy as np
import pytest

from repro.core.common import group_keypair
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
        assert {type(v) for v in (cfg.d, cfg.delta, cfg.k, cfg.keysize)} == {int}
        # A numpy key size used to overflow in prime generation's shifts
        # with a bare OverflowError.
        expected = group_keypair(PPGNNConfig(keysize=128))
        assert group_keypair(cfg).public_key.n == expected.public_key.n

    @pytest.mark.parametrize("key_seed", [-1, True, 1.5, "1"])
    def test_key_seed_must_be_a_non_negative_integer(self, key_seed):
        # -1 and True used to give the key pair of key_seed=1, and 1.5 was
        # accepted: two groups picking different seeds could share a key.
        with pytest.raises(ConfigurationError, match="key_seed"):
            PPGNNConfig(key_seed=key_seed)

    def test_key_seed_accepts_zero_none_and_numpy_integers(self):
        assert PPGNNConfig(key_seed=0).key_seed == 0
        assert PPGNNConfig(key_seed=None).key_seed is None
        cfg = PPGNNConfig(keysize=128, key_seed=np.int64(3))
        assert cfg.key_seed == 3 and type(cfg.key_seed) is int
        # A numpy seed used to reach `random.Random`, which refuses it.
        expected = group_keypair(PPGNNConfig(keysize=128, key_seed=3))
        assert group_keypair(cfg).public_key.n == expected.public_key.n

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
