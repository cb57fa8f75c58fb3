"""Regression tests for the latent-correctness sweep.

Each class pins one fixed bug with inputs that failed before the fix:

- ``_percentile``: float rank arithmetic misranked whenever ``n * fraction``
  landed an epsilon above an integer (``100 * 0.55 == 55.000000000000007``).
- ``KnnLRUCache``: a stored ``None`` read back as a miss, skewing hit rates
  and freezing the entry's LRU position.
- CRT decryption: Garner recombination divides by ``q^{-1} mod p`` and the
  per-prime order argument needs unit ciphertexts — ``p == q`` keys and
  adversarial non-unit values diverged from the generic path instead of
  falling back to it.
"""

import math
import random
from fractions import Fraction

import pytest

from repro.crypto.paillier import Ciphertext, PaillierPrivateKey, generate_keypair
from repro.errors import ConfigurationError
from repro.serve.cache import KnnLRUCache, LRUCache
from repro.serve.engine import _percentile


class TestPercentile:
    def _reference(self, values, fraction):
        """Nearest-rank over exact rationals — the definition itself."""
        if not values:
            return 0.0
        n = len(values)
        rank = min(max(1, math.ceil(Fraction(n) * Fraction(str(fraction)))), n)
        return values[rank - 1]

    @pytest.mark.parametrize(
        ("n", "fraction", "expected_rank"),
        [
            # Cases where float ceil(n * fraction) picks rank + 1:
            (25, 0.28, 7),
            (100, 0.55, 55),
            (100, 0.56, 56),
            # Exact boundaries:
            (10, 0.5, 5),
            (10, 0.95, 10),
            (3, 1.0, 3),
            (7, 0.0, 1),
        ],
    )
    def test_rank_selection(self, n, fraction, expected_rank):
        values = [float(i) for i in range(1, n + 1)]
        assert _percentile(values, fraction) == float(expected_rank)

    def test_float_epsilon_cases_differ_from_naive_float_rank(self):
        """The pinned cases really are the ones naive float math misranks."""
        for n, fraction in [(25, 0.28), (100, 0.55), (100, 0.56)]:
            naive_rank = math.ceil(n * fraction)
            exact_rank = math.ceil(Fraction(n) * Fraction(str(fraction)))
            assert naive_rank == exact_rank + 1

    def test_matches_reference_exhaustively(self):
        rng = random.Random(5)
        for _ in range(200):
            n = rng.randint(1, 120)
            values = sorted(rng.random() for _ in range(n))
            fraction = rng.choice([0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0, 1.5])
            assert _percentile(values, fraction) == self._reference(values, fraction)

    def test_empty_and_out_of_range(self):
        assert _percentile([], 0.5) == 0.0
        assert _percentile([3.0], -1.0) == 3.0
        assert _percentile([3.0, 4.0], 2.0) == 4.0


class TestLRUCacheStore:
    def test_replace_existing_key_updates_value_without_eviction(self):
        cache = KnnLRUCache(2)
        cache.store("a", 1)
        cache.store("b", 2)
        cache.store("a", 10)  # replace, not insert — nothing evicted
        assert len(cache) == 2
        assert cache.stats.evictions == 0
        assert cache.lookup("a") == 10
        assert cache.lookup("b") == 2

    def test_replace_refreshes_recency(self):
        cache = KnnLRUCache(2)
        cache.store("a", 1)
        cache.store("b", 2)
        cache.store("a", 10)  # "a" becomes most recent
        cache.store("c", 3)  # evicts "b", not "a"
        assert cache.lookup("a") == 10
        assert cache.lookup("b") is None

    def test_stored_none_is_a_hit(self):
        """A cached None must hit (and refresh recency), not read as a miss."""
        cache = KnnLRUCache(2)
        cache.store("a", None)
        assert cache.lookup("a") is None
        assert cache.stats.hits == 1 and cache.stats.misses == 0
        # Recency refreshed: "a" survives the next insert-at-capacity.
        cache.store("b", 2)
        cache.lookup("a")
        cache.store("c", 3)
        assert "a" not in cache._entries or cache.lookup("a") is None
        assert cache.stats.evictions == 1

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_non_positive_capacity_rejected(self, capacity):
        with pytest.raises(ConfigurationError):
            KnnLRUCache(capacity)

    def test_generic_alias(self):
        assert LRUCache is KnnLRUCache


class TestCrtDecryptFallback:
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_crt_equals_generic_on_honest_ciphertexts(self, tiny_keypair, s):
        sk, pk = tiny_keypair
        rng = random.Random(17 * s)
        modulus = pk.plaintext_modulus(s)
        samples = [0, 1, modulus - 1] + [rng.randrange(modulus) for _ in range(8)]
        for m in samples:
            c = pk.encrypt(m, s=s, rng=rng)
            crt_value, crt_path = sk.decrypt_with_path(c, use_crt=True)
            gen_value, gen_path = sk.decrypt_with_path(c, use_crt=False)
            assert crt_path == "crt" and gen_path == "generic"
            assert crt_value == gen_value == m

    @pytest.mark.parametrize("s", [1, 2])
    def test_adversarial_non_unit_value_falls_back_to_generic(self, tiny_keypair, s):
        """gcd(value, N) != 1 voids the CRT order argument; must not use it."""
        sk, pk = tiny_keypair
        for value in (sk.p, sk.q, 2 * sk.p, sk.p * sk.q):
            hostile = Ciphertext(value=value, s=s, public_key=pk)
            got, path = sk.decrypt_with_path(hostile)
            assert path == "generic"
            assert got == sk.decrypt_with_path(hostile, use_crt=False)[0]

    def test_degenerate_equal_prime_key_never_takes_crt(self):
        """p == q makes Garner divide by gcd(p, q) != 1 — must fall back."""
        real = generate_keypair(128, seed=777)
        p = real.secret_key.p
        pk_cls = type(real.public_key)
        degenerate_pk = pk_cls(p * p)
        sk = object.__new__(PaillierPrivateKey)
        sk.public_key = degenerate_pk
        sk.p = p
        sk.q = p
        sk.lam = p - 1  # coprime to N = p^2, so the generic path can run
        sk._lam_inv_cache = {}
        sk._crt = None
        sk._crt_s = {}
        c = degenerate_pk.encrypt(5, rng=random.Random(3))
        _, path = sk.decrypt_with_path(c)
        assert path == "generic"

    def test_honest_serving_decryptions_all_take_crt(self, tiny_keypair):
        """The fallback is a safety net: honest traffic never pays for it."""
        sk, pk = tiny_keypair
        rng = random.Random(123)
        for _ in range(25):
            c = pk.encrypt(rng.randrange(pk.n), rng=rng)
            assert sk.decrypt_with_path(c)[1] == "crt"
