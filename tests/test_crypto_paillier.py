"""Tests for the generalized Paillier (Damgård–Jurik) cryptosystem."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.crypto.paillier import (
    Ciphertext,
    PaillierPrivateKey,
    PaillierPublicKey,
    generate_keypair,
)
from repro.errors import CryptoError


class TestKeyGeneration:
    def test_modulus_size(self, keypair):
        assert keypair.public_key.key_bits == 256

    def test_seeded_generation_cached_and_deterministic(self):
        a = generate_keypair(128, seed=1)
        b = generate_keypair(128, seed=1)
        assert a.public_key.n == b.public_key.n
        assert a is b  # cache hit

    def test_different_seeds_differ(self):
        assert generate_keypair(128, seed=2).public_key.n != generate_keypair(
            128, seed=3
        ).public_key.n

    def test_invalid_keysize(self):
        with pytest.raises(CryptoError):
            generate_keypair(15)
        with pytest.raises(CryptoError):
            generate_keypair(130 + 1)

    def test_private_key_validates_factorization(self, keypair):
        with pytest.raises(CryptoError):
            PaillierPrivateKey(keypair.public_key, 3, 5)


class TestEncryptDecrypt:
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_roundtrip_at_levels(self, keypair, s):
        sk, pk = keypair
        rng = random.Random(0)
        for m in [0, 1, 2, pk.plaintext_modulus(s) // 2, pk.plaintext_modulus(s) - 1]:
            assert sk.decrypt(pk.encrypt(m, s=s, rng=rng)) == m

    def test_probabilistic_encryption(self, keypair):
        sk, pk = keypair
        c1 = pk.encrypt(42, rng=random.Random(1))
        c2 = pk.encrypt(42, rng=random.Random(2))
        assert c1.value != c2.value
        assert sk.decrypt(c1) == sk.decrypt(c2) == 42

    def test_insecure_mode_is_deterministic(self, keypair):
        _, pk = keypair
        assert pk.encrypt(7, secure=False).value == pk.encrypt(7, secure=False).value

    def test_plaintext_out_of_range(self, keypair):
        _, pk = keypair
        with pytest.raises(CryptoError):
            pk.encrypt(pk.plaintext_modulus(1))
        with pytest.raises(CryptoError):
            pk.encrypt(-1)

    def test_wrong_key_decryption_rejected(self, keypair):
        sk, _ = keypair
        other = generate_keypair(128, seed=77)
        c = other.public_key.encrypt(5)
        with pytest.raises(CryptoError):
            sk.decrypt(c)

    def test_rerandomize_preserves_plaintext(self, keypair):
        sk, pk = keypair
        c = pk.encrypt(123, rng=random.Random(5))
        c2 = pk.rerandomize(c, random.Random(6))
        assert c2.value != c.value
        assert sk.decrypt(c2) == 123

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=2**64))
    def test_roundtrip_property(self, m):
        sk, pk = generate_keypair(128, seed=4242)
        assert sk.decrypt(pk.encrypt(m % pk.n, rng=random.Random(m))) == m % pk.n


class TestNestedEncryption:
    def test_eps1_ciphertext_fits_eps2_plaintext(self, keypair):
        sk, pk = keypair
        inner = pk.encrypt(999, rng=random.Random(1))
        assert inner.value < pk.plaintext_modulus(2)
        outer = pk.encrypt(inner.value, s=2, rng=random.Random(2))
        assert sk.decrypt_nested(outer) == 999

    def test_decrypt_nested_requires_eps2(self, keypair):
        sk, pk = keypair
        with pytest.raises(CryptoError):
            sk.decrypt_nested(pk.encrypt(1, s=1))


class TestCiphertextSizes:
    def test_byte_sizes_follow_levels(self, keypair):
        _, pk = keypair
        # eps_1 ciphertexts live in Z_{N^2}: 2 * 256 bits = 64 bytes.
        assert pk.ciphertext_bytes(1) == 64
        # eps_2 in Z_{N^3}: 96 bytes — the 1.5x ratio of Section 6.
        assert pk.ciphertext_bytes(2) == 96

    def test_ciphertext_level_validation(self, keypair):
        _, pk = keypair
        with pytest.raises(CryptoError):
            Ciphertext(value=1, s=0, public_key=pk)


class TestLevelValidation:
    """A level is checked before it reaches a key's per-level caches."""

    @staticmethod
    def fresh_keys(keypair):
        # New key objects, so no other test shares (or pollutes) the caches.
        sk, pk = keypair
        public = PaillierPublicKey(pk.n)
        return PaillierPrivateKey(public, sk.p, sk.q), public

    @pytest.mark.parametrize("s", [2.0, 2.5, True, 0, -1, "2", None])
    def test_every_entry_point_rejects_the_level(self, keypair, s):
        sk, pk = self.fresh_keys(keypair)
        calls = (
            lambda: pk.encrypt(1, s=s),
            lambda: sk.encrypt(1, s=s),
            lambda: pk.encrypt_with_factor(1, 1, s=s),
            lambda: pk.obfuscate(3, s),
            lambda: sk.obfuscate(3, s),
            lambda: sk.obfuscate_stages(s),
            lambda: pk.g_pow(1, s),
            lambda: pk.nonce_plan(s),
            lambda: pk.plaintext_modulus(s),
            lambda: pk.ciphertext_modulus(s),
            lambda: pk.ciphertext_bytes(s),
            lambda: Ciphertext(value=1, s=s, public_key=pk),
        )
        for call in calls:
            with pytest.raises(CryptoError, match="level s"):
                call()

    def test_rejected_float_level_leaves_the_key_intact(self, keypair):
        sk, pk = self.fresh_keys(keypair)
        with pytest.raises(CryptoError):
            pk.encrypt(1, s=2.0)
        with pytest.raises(CryptoError):
            sk.encrypt(1, s=3.0)
        rng = random.Random(8)
        for s in (1, 2):
            for c in (pk.encrypt(7, s=s, rng=rng), sk.encrypt(7, s=s, rng=rng)):
                assert type(c.value) is int and type(c.s) is int and c.s == s
                assert sk.decrypt(c) == 7
        assert sk.decrypt_nested(pk.encrypt(pk.encrypt(9, rng=rng).value, s=2)) == 9

    def test_integer_likes_are_stored_as_int(self, keypair):
        np = pytest.importorskip("numpy")
        sk, pk = self.fresh_keys(keypair)
        c = pk.encrypt(5, s=np.int64(2), rng=random.Random(1))
        assert type(c.s) is int and c.s == 2
        assert sk.decrypt(c) == 5


class TestGPower:
    def test_g_pow_matches_pow(self, keypair):
        _, pk = keypair
        for s in (1, 2):
            mod = pk.ciphertext_modulus(s)
            for m in (0, 1, 12345, pk.plaintext_modulus(s) - 1):
                assert pk.g_pow(m, s) == pow(1 + pk.n, m, mod)

    def test_public_key_equality_and_hash(self, keypair):
        _, pk = keypair
        clone = PaillierPublicKey(pk.n)
        assert clone == pk and hash(clone) == hash(pk)


class TestCRTFastPath:
    """The CRT decryption must agree with the generic Damgård–Jurik path."""

    @pytest.mark.parametrize("s", [1, 2])
    def test_crt_equivalence_across_levels(self, keypair, s):
        sk, pk = keypair
        rng = random.Random(20260806 + s)
        mod = pk.plaintext_modulus(s)
        plaintexts = [0, 1, mod - 1] + [rng.randrange(mod) for _ in range(20)]
        for m in plaintexts:
            c = pk.encrypt(m, s=s, rng=rng)
            assert sk.decrypt(c, use_crt=True) == sk.decrypt(c, use_crt=False) == m

    def test_crt_equivalence_fresh_key(self):
        sk, pk = generate_keypair(192, seed=991)
        rng = random.Random(5)
        for s in (1, 2):
            for _ in range(10):
                m = rng.randrange(pk.plaintext_modulus(s))
                c = pk.encrypt(m, s=s, rng=rng)
                assert sk.decrypt(c, use_crt=True) == sk.decrypt(c, use_crt=False) == m

    def test_nested_decryption_uses_exact_crt(self, keypair):
        sk, pk = keypair
        rng = random.Random(6)
        inner = pk.encrypt(987654321, s=1, rng=rng)
        outer = pk.encrypt(inner.value, s=2, rng=rng)
        assert sk.decrypt_nested(outer) == 987654321


class TestGPowProperty:
    """Hypothesis: (1+N)^m via binomial expansion equals builtin pow."""

    @settings(max_examples=30, deadline=None)
    @given(
        m=st.integers(min_value=0, max_value=(1 << 200) - 1),
        s=st.sampled_from([1, 2, 3]),
    )
    def test_g_pow_matches_pow_at_all_levels(self, m, s):
        _, pk = generate_keypair(128, seed=4242)
        mod = pk.ciphertext_modulus(s)
        assert pk.g_pow(m % pk.plaintext_modulus(s), s) == pow(
            1 + pk.n, m % pk.plaintext_modulus(s), mod
        )

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_g_pow_boundary_plaintexts(self, s):
        _, pk = generate_keypair(128, seed=4242)
        mod = pk.ciphertext_modulus(s)
        for m in (0, pk.plaintext_modulus(s) - 1):
            assert pk.g_pow(m, s) == pow(1 + pk.n, m, mod)


class TestOwnerEncryption:
    """Hypothesis: the key holder's half-width encryption is byte-identical
    to the public path at the same rng state."""

    @settings(max_examples=40, deadline=None)
    @given(
        keysize=st.sampled_from([16, 24, 64, 128, 256, 512, 1024]),
        s=st.sampled_from([1, 2, 3]),
        which=st.sampled_from(["zero", "one", "max", "random"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        fast=st.booleans(),
    )
    @example(keysize=16, s=3, which="max", seed=0, fast=True)
    @example(keysize=1024, s=1, which="max", seed=1, fast=True)
    @example(keysize=1024, s=2, which="zero", seed=2, fast=True)
    @example(keysize=1024, s=3, which="max", seed=3, fast=True)
    @example(keysize=1024, s=1, which="one", seed=4, fast=False)
    @example(keysize=1024, s=2, which="max", seed=5, fast=False)
    @example(keysize=1024, s=3, which="random", seed=6, fast=False)
    def test_owner_encrypt_equals_public_encrypt(self, keysize, s, which, seed, fast):
        from repro.crypto import fastexp

        sk, pk = generate_keypair(keysize, seed=keysize)
        top = pk.plaintext_modulus(s) - 1
        m = {"zero": 0, "one": 1, "max": top, "random": seed % (top + 1)}[which]
        with fastexp.forced(fast):
            owner = sk.encrypt(m, s, random.Random(seed))
            public = pk.encrypt(m, s, random.Random(seed))
        assert owner == public
        assert sk.decrypt(owner) == m

    def test_plaintext_out_of_range(self, keypair):
        sk, pk = keypair
        for s in (1, 2):
            with pytest.raises(CryptoError):
                sk.encrypt(pk.plaintext_modulus(s), s)
            with pytest.raises(CryptoError):
                sk.encrypt(-1, s)


class TestRandomUnit:
    def test_returns_a_unit(self, keypair):
        from math import gcd

        _, pk = keypair
        r = pk.random_unit(random.Random(8))
        assert 1 <= r < pk.n and gcd(r, pk.n) == 1

    def test_degenerate_modulus_raises_instead_of_spinning(self, keypair):
        # An adversarial rng that only ever proposes multiples of p can
        # never find a unit; the bounded loop must raise, not hang.
        sk, pk = keypair

        class StuckRng:
            def randrange(self, lo, hi):
                return sk.p

        with pytest.raises(CryptoError):
            pk.random_unit(StuckRng())


class TestFactorialInverseDedup:
    def test_extract_dlog_uses_shared_table(self, keypair):
        # The decrypt recursion and modmath.factorial_inverse_table must
        # be one implementation: the cached table equals modmath's.
        from repro.crypto.modmath import factorial_inverse_table
        from repro.crypto.paillier import _inv_fact_table

        sk, pk = keypair
        s = 3
        c = pk.encrypt(123456789, s=s, rng=random.Random(2))
        assert sk.decrypt(c) == 123456789
        cached = _inv_fact_table(pk.n, s)
        assert list(cached) == factorial_inverse_table(s, pk.n**s)

    def test_table_cached_per_key_and_level(self, keypair):
        from repro.crypto.paillier import _inv_fact_table

        _, pk = keypair
        assert _inv_fact_table(pk.n, 2) is _inv_fact_table(pk.n, 2)


class TestFastPathEquivalence:
    """Satellite (d): fastexp-vs-pow and pooled-vs-unpooled equality."""

    @pytest.mark.parametrize("keysize", [1024, 2048])
    def test_ciphertexts_identical_with_fast_paths_on_and_off(self, keysize):
        from repro.crypto import fastexp

        sk, pk = generate_keypair(keysize, seed=20260808)
        values = {}
        for flag in (True, False):
            with fastexp.forced(flag):
                rng = random.Random(31337)
                c = pk.encrypt(424242, rng=rng)
                r2 = pk.rerandomize(c, rng)
                values[flag] = (c.value, r2.value)
        assert values[True] == values[False]
        assert sk.decrypt(
            Ciphertext(values[True][1], 1, pk)
        ) == 424242

    @pytest.mark.parametrize("keysize", [1024, 2048])
    def test_pooled_equals_unpooled_for_the_same_nonce(self, keysize):
        sk, pk = generate_keypair(keysize, seed=20260808)
        r = pk.random_unit(random.Random(99))
        unpooled = pk.encrypt(7654321, rng=random.Random(99))
        pooled = pk.encrypt_with_factor(7654321, pk.obfuscate(r))
        assert pooled.value == unpooled.value
        assert sk.decrypt(pooled) == 7654321

    def test_obfuscate_matches_pow_across_levels(self, keypair):
        from repro.crypto import fastexp

        _, pk = keypair
        rng = random.Random(4)
        for s in (1, 2):
            r = pk.random_unit(rng)
            expected = pow(r, pk.n_pow(s), pk.ciphertext_modulus(s))
            for flag in (True, False):
                with fastexp.forced(flag):
                    assert pk.obfuscate(r, s) == expected

    def test_owner_obfuscate_matches_pow(self, keypair):
        from repro.crypto import fastexp

        sk, pk = keypair
        rng = random.Random(12)
        base = pk.random_unit(rng)
        expected = pow(base, pk.n_pow(2), pk.ciphertext_modulus(2))
        for flag in (True, False):
            with fastexp.forced(flag):
                assert sk.obfuscate(base, s=2) == expected

    def test_encrypt_with_factor_validates_range(self, keypair):
        _, pk = keypair
        with pytest.raises(CryptoError):
            pk.encrypt_with_factor(pk.plaintext_modulus(1), 1)
