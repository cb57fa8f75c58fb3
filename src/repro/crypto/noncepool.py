"""Offline precomputation of encryption nonces.

Paillier encryption costs one cheap ``(1+N)^m`` evaluation plus one
*expensive* ``r^{N^s} mod N^{s+1}`` exponentiation that does not depend on
the plaintext.  A mobile coordinator can therefore precompute obfuscation
factors while idle/charging and spend them at query time — turning the
dominant user-side cost of query generation (the delta'-long indicator
encryption, Figure 6b) into an offline expense.

:class:`NoncePool` holds precomputed factors per encryption level;
:func:`encrypt_with_pool` consumes one per ciphertext and falls back to
online computation when the pool runs dry (correctness never depends on
pool state).  The crypto ablation test verifies ciphertext compatibility
and measures the speedup.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass

from repro.crypto import cores, fastexp
from repro.crypto.homomorphic import check_indicator
from repro.crypto.paillier import (
    Ciphertext,
    PaillierPrivateKey,
    PaillierPublicKey,
    check_level,
)
from repro.errors import CryptoError, positive_int


@dataclass
class PoolStats:
    """Hit/miss accounting of one pool's lifetime.

    ``pooled`` counts takes served from stock (the offline-work wins),
    ``dry`` counts takes that found the pool empty (the caller fell back
    to an online exponentiation), ``precomputed`` counts factors ever
    produced by :meth:`NoncePool.refill`.  The ``fastexp`` trio tracks
    which exponentiation kernel the refills ran: ``windowed`` factors
    went through the fixed-exponent window program, ``crt_split``
    through the secret-key half-width path, and ``fast_muls`` is the
    big-integer multiplication count refill exponentiations spent —
    exact for the fast kernels, the square-and-multiply estimate for
    builtin ``pow`` (the ``crypto.fastexp.*`` metrics).
    """

    precomputed: int = 0
    refills: int = 0
    pooled: int = 0
    dry: int = 0
    windowed: int = 0
    crt_split: int = 0
    fast_muls: int = 0

    @property
    def hit_rate(self) -> float:
        takes = self.pooled + self.dry
        return self.pooled / takes if takes else 0.0

    def merge(self, other: "PoolStats") -> None:
        """Accumulate another pool's counters into this one."""
        self.precomputed += other.precomputed
        self.refills += other.refills
        self.pooled += other.pooled
        self.dry += other.dry
        self.windowed += other.windowed
        self.crt_split += other.crt_split
        self.fast_muls += other.fast_muls


class NoncePool:
    """A stock of precomputed obfuscation factors ``r^{N^s} mod N^{s+1}``.

    With a ``secret_key`` the pool belongs to the key owner (the paper's
    coordinator precomputes its *own* nonces), so refills and dry-pool
    encryptions run the owner's half-width path
    (:meth:`~repro.crypto.paillier.PaillierPrivateKey.obfuscate`), a
    refill's batch on two cores when it can; without one they use the
    public windowed fixed-exponent program.  Both produce
    the exact values builtin ``pow`` would, so pool contents never depend
    on which kernel ran.
    """

    def __init__(
        self,
        public_key: PaillierPublicKey,
        secret_key: PaillierPrivateKey | None = None,
    ) -> None:
        if secret_key is not None and secret_key.public_key != public_key:
            raise CryptoError("secret key does not match the pool's public key")
        self.public_key = public_key
        self.secret_key = secret_key
        self._factors: dict[int, list[int]] = defaultdict(list)
        self.stats = PoolStats()

    def attach_secret_key(self, secret_key: PaillierPrivateKey) -> None:
        """Upgrade refills to the owner's half-width path (key owner's pool)."""
        if secret_key.public_key != self.public_key:
            raise CryptoError("secret key does not match the pool's public key")
        self.secret_key = secret_key

    def available(self, s: int = 1) -> int:
        """How many factors remain at level ``s``."""
        return len(self._factors[check_level(s)])

    def refill(self, count: int, s: int = 1, rng: random.Random | None = None) -> None:
        """Precompute ``count`` fresh factors at level ``s`` (offline work).

        Every nonce is drawn first; a key-owned pool then builds the
        factors as one batch, on two cores when it can
        (:func:`~repro.crypto.cores.obfuscate_many`).
        """
        count = positive_int(count, "refill count")
        s = check_level(s)
        rng = rng or random.Random()
        pk, sk = self.public_key, self.secret_key
        if sk is not None:
            muls = sum(m for m, _ in sk.obfuscate_stages(s))
        elif fastexp.enabled():
            muls = pk.nonce_plan(s).per_call_muls
        else:
            muls = fastexp.binary_pow_cost(pk.n_pow(s))
        nonces = [pk.random_unit(rng) for _ in range(count)]
        if sk is not None:
            self._factors[s].extend(cores.obfuscate_many(sk, nonces, s))
        else:
            self._factors[s].extend(pk.obfuscate(r, s) for r in nonces)
        if fastexp.enabled():
            if sk is not None:
                self.stats.crt_split += count
            else:
                self.stats.windowed += count
        self.stats.fast_muls += count * muls
        self.stats.precomputed += count
        self.stats.refills += 1

    def take(self, s: int = 1) -> int | None:
        """Pop one factor, or None when the pool is dry.

        A popped factor is *consumed*: it leaves the pool and can never be
        handed out again, so two ciphertexts can only share an obfuscation
        factor if ``refill`` drew the same unit twice (probability ~2^-keysize).
        """
        bucket = self._factors[check_level(s)]
        if bucket:
            self.stats.pooled += 1
            return bucket.pop()
        self.stats.dry += 1
        return None


class NoncePoolRegistry:
    """Per-public-key nonce pools shared by every session under that key.

    The serving engine owns one registry; sessions whose groups share a key
    pair (the common benchmark configuration) draw from one pool, so
    offline precomputation is amortized across the whole fleet.  Refill
    randomness is derived deterministically from the registry seed and a
    refill counter, keeping serving runs replayable.
    """

    def __init__(self, seed: int = 0, chunk: int = 64) -> None:
        self.seed = seed
        self.chunk = positive_int(chunk, "refill chunk")
        self._pools: dict[PaillierPublicKey, NoncePool] = {}
        self._refills = 0

    def pool_for(
        self,
        public_key: PaillierPublicKey,
        secret_key: PaillierPrivateKey | None = None,
    ) -> NoncePool:
        """The shared pool of one public key (created on first use).

        Passing the matching ``secret_key`` marks the pool as key-owned,
        switching refills to the owner's half-width path (see
        :class:`NoncePool`).
        """
        pool = self._pools.get(public_key)
        if pool is None:
            pool = NoncePool(public_key, secret_key)
            self._pools[public_key] = pool
        elif secret_key is not None and pool.secret_key is None:
            pool.attach_secret_key(secret_key)
        return pool

    def ensure(self, public_key: PaillierPublicKey, count: int, s: int = 1) -> NoncePool:
        """Top the key's pool up to ``count`` factors at level ``s``.

        Refills happen in chunks of at least ``self.chunk`` — the batching
        knob: one big refill amortizes better than many small ones when
        several sessions drain the same pool.
        """
        pool = self.pool_for(public_key)
        deficit = count - pool.available(s)
        if deficit > 0:
            self._refills += 1
            rng = random.Random(self.seed * 1_000_003 + self._refills * 97 + s)
            pool.refill(max(deficit, self.chunk), s=s, rng=rng)
        return pool

    @property
    def stats(self) -> PoolStats:
        """Counters aggregated over every pool in the registry."""
        total = PoolStats()
        for pool in self._pools.values():
            total.merge(pool.stats)
        return total


def encrypt_with_pool(
    pool: NoncePool,
    plaintext: int,
    s: int = 1,
    rng: random.Random | None = None,
    public_key: PaillierPublicKey | None = None,
) -> Ciphertext:
    """Encrypt using a precomputed obfuscation factor when available.

    Ciphertexts are indistinguishable from :meth:`PaillierPublicKey.encrypt`
    output (same distribution); when the pool is dry the factor is computed
    online — by the key owner's half-width path when the pool holds the
    secret key — so callers never need to check pool levels.

    ``public_key`` states the key the caller intends to encrypt under.
    A pool refilled under a *different* key would silently produce
    undecryptable ciphertexts (the factor ``r^{N^s}`` is key-specific),
    so a mismatch raises :class:`~repro.errors.CryptoError` instead.
    """
    pk = pool.public_key
    if public_key is not None and public_key != pk:
        raise CryptoError(
            "nonce pool was refilled under a different public key than the "
            "one this encryption targets"
        )
    pk.check_plaintext(plaintext, s)
    factor = pool.take(s)
    if factor is None:
        owner = pool.secret_key if pool.secret_key is not None else pk
        return owner.encrypt(plaintext, s=s, rng=rng)
    # Routed through the key method so profiled keys charge the pooled
    # cost (binomial expansion + combine) instead of a full encryption.
    return pk.encrypt_with_factor(plaintext, factor, s=s)


def pooled_indicator(
    pool: NoncePool,
    length: int,
    hot_index: int,
    s: int = 1,
    rng: random.Random | None = None,
    public_key: PaillierPublicKey | None = None,
) -> list[Ciphertext]:
    """The basis-vector indicator of ``encrypt_indicator``, pool-backed.

    ``public_key`` pins the expected group key — see
    :func:`encrypt_with_pool`.
    """
    length, hot_index = check_indicator(length, hot_index)
    return [
        encrypt_with_pool(
            pool, 1 if i == hot_index else 0, s=s, rng=rng, public_key=public_key
        )
        for i in range(length)
    ]
