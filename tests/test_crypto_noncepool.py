"""Tests for offline nonce precomputation."""

import random
import time

import pytest

from repro.crypto.noncepool import NoncePool, encrypt_with_pool, pooled_indicator
from repro.crypto.paillier import generate_keypair
from repro.errors import ConfigurationError, CryptoError


@pytest.fixture(scope="module")
def kp():
    return generate_keypair(256, seed=2468)


class TestNoncePool:
    def test_refill_and_take(self, kp):
        _, pk = kp
        pool = NoncePool(pk)
        assert pool.available() == 0
        pool.refill(5, rng=random.Random(1))
        assert pool.available() == 5
        assert pool.take() is not None
        assert pool.available() == 4
        assert pool.take(s=2) is None  # level 2 never filled

    def test_negative_refill_rejected(self, kp):
        _, pk = kp
        with pytest.raises(ConfigurationError):
            NoncePool(pk).refill(-1)

    def test_pooled_ciphertexts_decrypt_correctly(self, kp):
        sk, pk = kp
        pool = NoncePool(pk)
        pool.refill(10, rng=random.Random(2))
        for m in (0, 1, 424242, pk.n - 1):
            c = encrypt_with_pool(pool, m)
            assert sk.decrypt(c) == m

    def test_pooled_ciphertexts_are_randomized(self, kp):
        _, pk = kp
        pool = NoncePool(pk)
        pool.refill(2, rng=random.Random(3))
        a = encrypt_with_pool(pool, 7)
        b = encrypt_with_pool(pool, 7)
        assert a.value != b.value

    def test_dry_pool_falls_back_online(self, kp):
        sk, pk = kp
        pool = NoncePool(pk)  # never refilled
        c = encrypt_with_pool(pool, 99, rng=random.Random(4))
        assert sk.decrypt(c) == 99

    def test_level_two_support(self, kp):
        sk, pk = kp
        pool = NoncePool(pk)
        pool.refill(2, s=2, rng=random.Random(5))
        c = encrypt_with_pool(pool, 31337, s=2)
        assert c.s == 2
        assert sk.decrypt(c) == 31337

    def test_plaintext_validation(self, kp):
        _, pk = kp
        pool = NoncePool(pk)
        with pytest.raises(CryptoError):
            encrypt_with_pool(pool, pk.n)

    def test_pooled_indicator_selects_correctly(self, kp):
        sk, pk = kp
        from repro.crypto.homomorphic import matrix_select

        pool = NoncePool(pk)
        pool.refill(6, rng=random.Random(6))
        indicator = pooled_indicator(pool, 6, 4)
        matrix = [[10, 20, 30, 40, 50, 60]]
        assert sk.decrypt(matrix_select(matrix, indicator)[0]) == 50

    def test_pooled_indicator_bounds(self, kp):
        _, pk = kp
        with pytest.raises(CryptoError):
            pooled_indicator(NoncePool(pk), 3, 3)

    def test_wrong_key_pool_rejected(self, kp):
        _, pk = kp
        _, other_pk = generate_keypair(256, seed=1357)
        pool = NoncePool(other_pk)
        pool.refill(3, rng=random.Random(9))
        with pytest.raises(CryptoError, match="different public key"):
            encrypt_with_pool(pool, 5, public_key=pk)
        with pytest.raises(CryptoError, match="different public key"):
            pooled_indicator(pool, 3, 1, public_key=pk)

    def test_wrong_key_rejected_even_when_dry(self, kp):
        # The online fallback would use the *pool's* key, which is still
        # not the one the caller asked for — dryness must not mask it.
        _, pk = kp
        _, other_pk = generate_keypair(256, seed=1357)
        pool = NoncePool(other_pk)
        with pytest.raises(CryptoError, match="different public key"):
            encrypt_with_pool(pool, 5, public_key=pk)

    def test_matching_key_expectation_passes(self, kp):
        sk, pk = kp
        pool = NoncePool(pk)
        pool.refill(1, rng=random.Random(10))
        c = encrypt_with_pool(pool, 77, public_key=pk)
        assert sk.decrypt(c) == 77
        # And the dry-pool fallback still honors a matching expectation.
        d = encrypt_with_pool(pool, 78, rng=random.Random(11), public_key=pk)
        assert sk.decrypt(d) == 78

    def test_online_phase_is_faster_with_pool(self, kp):
        """The point of the exercise: query-time encryption gets cheaper."""
        _, pk = kp
        pool = NoncePool(pk)
        pool.refill(60, rng=random.Random(7))
        rng = random.Random(8)

        start = time.perf_counter()
        for i in range(60):
            encrypt_with_pool(pool, i)
        pooled_time = time.perf_counter() - start

        start = time.perf_counter()
        for i in range(60):
            pk.encrypt(i, rng=rng)
        online_time = time.perf_counter() - start

        assert pooled_time < online_time


class TestPoolStatsAndSharing:
    """Counters plus the never-reuse property of shared pools."""

    def test_stats_count_pooled_and_dry_takes(self, kp):
        _, pk = kp
        pool = NoncePool(pk)
        pool.refill(3, rng=random.Random(2))
        assert pool.stats.precomputed == 3 and pool.stats.refills == 1
        for _ in range(3):
            assert pool.take() is not None
        assert pool.take() is None
        assert pool.stats.pooled == 3 and pool.stats.dry == 1
        assert pool.stats.hit_rate == pytest.approx(0.75)

    def test_registry_shares_one_pool_per_key(self, kp):
        from repro.crypto.noncepool import NoncePoolRegistry

        _, pk = kp
        registry = NoncePoolRegistry(seed=9, chunk=8)
        a = registry.ensure(pk, 4)
        b = registry.pool_for(pk)
        assert a is b
        assert a.available() >= 4  # chunked refill tops up past the ask
        other = generate_keypair(128, seed=31).public_key
        assert registry.pool_for(other) is not a
        assert registry.stats.precomputed == a.stats.precomputed

    @pytest.mark.parametrize("chunk", [2.5, 2.0, True, 0])
    def test_registry_chunk_checked_at_construction(self, chunk):
        from repro.crypto.noncepool import NoncePoolRegistry

        with pytest.raises(ConfigurationError, match="refill chunk"):
            NoncePoolRegistry(chunk=chunk)

    @pytest.mark.parametrize("count", [2.5, True, -3, 0, 10.5, 4.0])
    def test_registry_ensure_checks_the_count(self, kp, count):
        # A fractional or bool count used to top the pool up to a chunk,
        # a non-positive one passed, and 10.5 blamed a deficit of 6.5.
        from repro.crypto.noncepool import NoncePoolRegistry

        _, pk = kp
        registry = NoncePoolRegistry(seed=3, chunk=4)
        with pytest.raises(ConfigurationError, match=f"ensure count .*{count!r}"):
            registry.ensure(pk, count)
        assert registry.pool_for(pk).available() == 0
        assert registry.stats.refills == 0

    @pytest.mark.parametrize("s", [0, -1, 2.0, True])
    def test_take_and_available_check_the_level(self, kp, s):
        # take(0) used to record a dry take and return None.
        _, pk = kp
        pool = NoncePool(pk)
        pool.refill(2, rng=random.Random(4))
        with pytest.raises(CryptoError):
            pool.take(s)
        with pytest.raises(CryptoError):
            pool.available(s)
        assert pool.stats.dry == 0 and pool.available() == 2

    def test_registry_refills_are_deterministic(self, kp):
        from repro.crypto.noncepool import NoncePoolRegistry

        _, pk = kp

        def drain(seed):
            registry = NoncePoolRegistry(seed=seed, chunk=4)
            pool = registry.ensure(pk, 4)
            return [pool.take() for _ in range(4)]

        assert drain(5) == drain(5)
        assert drain(5) != drain(6)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_shared_pool_never_reuses_a_nonce(self, kp, seed):
        """Interleaved sessions draining one pool never share a factor.

        Simulates many concurrent sessions taking from (and occasionally
        refilling) one shared pool in a random interleaving; every factor
        handed out must be globally unique and every pooled ciphertext must
        still decrypt to its plaintext.
        """
        sk, pk = kp
        pool = NoncePool(pk)
        rng = random.Random(seed)
        pool.refill(6, rng=rng)
        handed_out = []
        original_take = pool.take

        def spying_take(s=1):
            factor = original_take(s)
            if factor is not None:
                handed_out.append(factor)
            return factor

        pool.take = spying_take
        ciphertexts = []
        plaintexts = []
        for step in range(60):
            if pool.available() < 2 and rng.random() < 0.5:
                pool.refill(rng.randrange(1, 5), rng=rng)
            m = rng.randrange(1 << 32)
            c = encrypt_with_pool(pool, m, rng=rng, public_key=pk)
            ciphertexts.append(c)
            plaintexts.append(m)
        assert len(handed_out) > 0
        assert len(set(handed_out)) == len(handed_out), "a pooled factor was reused"
        for m, c in zip(plaintexts, ciphertexts, strict=True):
            assert sk.decrypt(c) == m


class TestFastRefillPaths:
    """Refill kernels: windowed for public pools, half-width for key owners."""

    def test_refill_values_identical_across_kernels(self, kp):
        from repro.crypto import fastexp

        sk, pk = kp
        factors = {}
        for name, pool_args, flag in (
            ("slow", (pk,), False),
            ("windowed", (pk,), True),
            ("crt", (pk, sk), True),
        ):
            with fastexp.forced(flag):
                pool = NoncePool(*pool_args)
                pool.refill(4, rng=random.Random(77))
                factors[name] = [pool.take() for _ in range(4)]
        assert factors["slow"] == factors["windowed"] == factors["crt"]

    @pytest.mark.parametrize("s", [2, 3])
    def test_owner_refills_and_fallbacks_equal_public_at_higher_levels(self, kp, s):
        from repro.crypto import fastexp

        sk, pk = kp
        with fastexp.forced(True):
            owner, public = NoncePool(pk, sk), NoncePool(pk)
            owner.refill(3, s=s, rng=random.Random(s))
            public.refill(3, s=s, rng=random.Random(s))
            assert [owner.take(s) for _ in range(3)] == [
                public.take(s) for _ in range(3)
            ]
            # Both pools are dry now: the owner falls back to sk.encrypt.
            fallbacks = [
                encrypt_with_pool(pool, 31337, s=s, rng=random.Random(9))
                for pool in (owner, public)
            ]
        assert fallbacks[0].value == fallbacks[1].value
        assert sk.decrypt(fallbacks[0]) == 31337
        assert owner.stats.dry == public.stats.dry == 1

    @pytest.mark.parametrize("count", [2.5, 2.0, True, 0])
    def test_refill_rejects_non_integer_or_zero_count(self, kp, count):
        sk, pk = kp
        for pool in (NoncePool(pk), NoncePool(pk, sk)):
            with pytest.raises(ConfigurationError):
                pool.refill(count, rng=random.Random(1))
            assert pool.stats.refills == 0

    @pytest.mark.parametrize("s", [2.5, 2.0, True, 0])
    def test_refill_rejects_bad_levels(self, kp, s):
        sk, pk = kp
        for pool in (NoncePool(pk), NoncePool(pk, sk)):
            with pytest.raises(CryptoError):
                pool.refill(1, s=s, rng=random.Random(1))
            assert pool.stats.refills == 0

    def test_stats_track_which_kernel_ran(self, kp):
        from repro.crypto import fastexp

        sk, pk = kp
        with fastexp.forced(True):
            public_pool = NoncePool(pk)
            public_pool.refill(3, rng=random.Random(1))
            assert public_pool.stats.windowed == 3
            assert public_pool.stats.crt_split == 0
            assert public_pool.stats.fast_muls > 0

            owner_pool = NoncePool(pk, sk)
            owner_pool.refill(2, rng=random.Random(1))
            assert owner_pool.stats.crt_split == 2
            assert owner_pool.stats.windowed == 0

            merged = type(owner_pool.stats)()
            merged.merge(public_pool.stats)
            merged.merge(owner_pool.stats)
            assert merged.windowed == 3 and merged.crt_split == 2
            assert merged.fast_muls == (
                public_pool.stats.fast_muls + owner_pool.stats.fast_muls
            )

    def test_dry_owner_pool_falls_back_to_the_owner_path(self, kp, monkeypatch):
        from repro.crypto.paillier import PaillierPublicKey

        sk, pk = kp
        expected = [pk.encrypt(m, rng=random.Random(m)) for m in range(3)]
        pool = NoncePool(pk, sk)

        def refuse(self, r, s=1):
            raise AssertionError("a key-owned pool encrypted at full width")

        monkeypatch.setattr(PaillierPublicKey, "obfuscate", refuse)
        got = [
            encrypt_with_pool(pool, m, rng=random.Random(m), public_key=pk)
            for m in range(3)
        ]
        assert got == expected
        assert pool.stats.dry == 3

    def test_slow_refill_ledgers_binary_estimate(self, kp):
        from repro.crypto import fastexp
        from repro.crypto.fastexp import binary_pow_cost

        _, pk = kp
        with fastexp.forced(False):
            pool = NoncePool(pk)
            pool.refill(2, rng=random.Random(1))
            assert pool.stats.fast_muls == 2 * binary_pow_cost(pk.n)

    def test_mismatched_secret_key_rejected(self, kp):
        _, pk = kp
        other = generate_keypair(128, seed=4321)
        with pytest.raises(CryptoError):
            NoncePool(pk, other.secret_key)
        pool = NoncePool(pk)
        with pytest.raises(CryptoError):
            pool.attach_secret_key(other.secret_key)

    def test_registry_attaches_secret_key_once(self, kp):
        from repro.crypto.noncepool import NoncePoolRegistry

        sk, pk = kp
        registry = NoncePoolRegistry(seed=3)
        pool = registry.pool_for(pk)
        assert pool.secret_key is None
        assert registry.pool_for(pk, sk) is pool
        assert pool.secret_key is sk
