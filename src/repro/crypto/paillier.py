"""Generalized Paillier cryptosystem eps_s of Damgård and Jurik [10].

The scheme is parameterized by ``s >= 1``: plaintexts live in ``Z_{N^s}``
and ciphertexts in ``Z*_{N^{s+1}}``.  ``s = 1`` is the classic Paillier
cryptosystem; the paper's PPGNN protocol uses ``s = 1`` throughout, and its
PPGNN-OPT optimization additionally uses ``s = 2`` so a whole eps_1
ciphertext fits inside an eps_2 plaintext (Section 6).  Encryption and
decryption with any ``s`` share the same key pair.

Construction (with the standard ``g = 1 + N`` simplification):

- ``Gen(keysize)``: pick primes p, q of ``keysize/2`` bits, ``N = p*q``,
  ``lambda = lcm(p-1, q-1)``.
- ``Enc_s(m)``: ``c = (1+N)^m * r^{N^s}  mod N^{s+1}`` with random
  ``r in Z*_N``.
- ``Dec_s(c)``: ``c^lambda mod N^{s+1}`` equals ``(1+N)^{m*lambda}``; the
  Damgård–Jurik extraction recursion recovers ``m*lambda mod N^s`` which is
  multiplied by ``lambda^{-1} mod N^s``.

``(1+N)^m`` is computed via the binomial expansion — it has only ``s + 1``
non-vanishing terms modulo ``N^{s+1}`` — instead of a full modular
exponentiation, the same trick GMP-based implementations use.

Whoever holds the secret key (the paper's coordinator, who generated the
pair) encrypts through :meth:`PaillierPrivateKey.encrypt`, which builds
the nonce factor ``r^{N^s}`` at half width from p and q and yields the
same ciphertext as the public path at the same rng state.  Per prime the
factor is a Teichmüller lift: one ``(p - 1)`` power modulo ``p^{s+1}``
and a binomial series of ``s + 1`` terms, the trick ``g_pow`` plays on
``(1+N)^m``, so its costly exponent has half the key's bits at every
level.

Every level ``s`` a caller passes goes through :func:`check_level` before
it reaches a per-level cache or a :class:`Ciphertext`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd
from typing import NamedTuple

from repro.crypto import fastexp
from repro.crypto.modmath import factorial_inverse_table, invmod, lcm
from repro.crypto.primes import generate_distinct_primes
from repro.errors import ConfigurationError, CryptoError, positive_int

#: Bound on the nonce rejection loop.  Each draw from ``Z_N`` is a non-unit
#: with probability ~2^-(keysize/2); this many consecutive failures means
#: the modulus is degenerate, not that we are unlucky.
_RANDOM_UNIT_ATTEMPTS = 128


def check_level(s: object) -> int:
    """``s`` as a Damgård–Jurik level: an ``int`` of at least 1.

    :func:`~repro.errors.positive_int`, raising :class:`CryptoError` like
    every other level fault.  The keys' per-level caches are dicts, and
    ``2.0`` or ``True`` hash like ``2`` and ``1``: an unchecked float level
    would leave float moduli behind for every later caller of the key.
    A plain ``int`` skips ``positive_int``'s abstract-type check, which
    costs close to a microsecond; a pooled encryption, a few microseconds
    of arithmetic, checks its level five times.
    """
    if type(s) is int and s >= 1:
        return s
    try:
        return positive_int(s, "ciphertext level s")
    except ConfigurationError as exc:
        raise CryptoError(str(exc)) from None


def _lift_series(prime: int, s: int) -> tuple[int, ...]:
    """Horner coefficients of ``u^E mod prime^{s+1}``, highest degree first.

    ``E = (prime^s - 1) / (prime - 1)``.  For ``u ≡ 1 (mod prime)`` the
    difference ``t = u - 1`` is divisible by ``prime``, so ``u^E`` is the
    binomial series ``sum_{i <= s} C(E, i) t^i`` and ``C(E, i)`` matters
    only modulo ``prime^{s+1-i}``.  ``E``'s base-``prime`` digits are all 1,
    so for ``s < prime`` Lucas' theorem puts the leading coefficient
    ``C(E, s) mod prime`` at 1 for ``s = 1`` and at 0 above: the first
    Horner step multiplies by a single digit, and ``s - 1`` full
    multiplications remain.
    """
    e = (prime**s - 1) // (prime - 1)
    return tuple(comb(e, i) % prime ** (s + 1 - i) for i in range(s, -1, -1))


def _teichmuller(x: int, prime: int, modulus: int, series: tuple[int, ...]) -> int:
    """``x^{prime^s} mod prime^{s+1}`` for ``0 <= x < prime``, as ``x * u^E``.

    ``prime^s = 1 + (prime - 1) E``, so ``x^{prime^s} = x * u^E`` with
    ``u = x^{prime-1}``, which Fermat puts at 1 modulo ``prime`` for every
    ``x != 0``; ``u^E`` is then the series of :func:`_lift_series`.  At
    ``s = 1`` this is ``x * x^{prime-1} = x^prime``; for ``x = 0`` the
    product is 0 whatever the series gives.
    """
    t = pow(x, prime - 1, modulus) - 1
    acc = series[0]
    for coeff in series[1:]:
        acc = (acc * t + coeff) % modulus
    return x * acc % modulus


@lru_cache(maxsize=64)
def _inv_fact_table(base: int, s: int) -> tuple[int, ...]:
    """Inverses of ``k! mod base^s`` for the extraction recursion.

    One shared implementation (:func:`~repro.crypto.modmath.
    factorial_inverse_table`), cached per (key modulus, level): the same
    table is rebuilt for every decryption otherwise — N, p, and q each
    appear here once per level in a long-running process.
    """
    return tuple(factorial_inverse_table(s, base**s))


def _extract_dlog(u: int, base: int, s: int) -> int:
    """Discrete log of ``u`` to base ``1 + base`` modulo ``base^{s+1}``.

    The Damgård–Jurik extraction recursion of [10], written over an
    arbitrary modulus base so it serves both the classic path (``base = N``)
    and the CRT fast path (``base = p`` and ``base = q`` separately, with
    half-size arithmetic).  ``u`` must be congruent to 1 modulo ``base``;
    the recursion rebuilds the base-``base`` digits of the exponent one
    level at a time, correcting with binomial terms.
    """
    powers = [1] * (s + 2)
    for j in range(1, s + 2):
        powers[j] = powers[j - 1] * base
    inv_fact = _inv_fact_table(base, s)
    m = 0
    for j in range(1, s + 1):
        mod_j = powers[j]
        t1 = (u % powers[j + 1] - 1) // base  # the L function, exact
        t2 = m
        running = m
        for k in range(2, j + 1):
            running -= 1
            t2 = t2 * running % mod_j
            t1 = (t1 - t2 * powers[k - 1] % mod_j * inv_fact[k]) % mod_j
        m = t1 % mod_j
    return m


@dataclass(frozen=True, slots=True)
class Ciphertext:
    """A Damgård–Jurik ciphertext: a value in ``Z*_{N^{s+1}}``.

    Carries the encryption level ``s`` and the public key so homomorphic
    operators can validate compatibility.  The PPGNN-OPT protocol treats an
    ``s = 1`` ciphertext *value* as an ``s = 2`` plaintext — accessed via
    :attr:`value`.
    """

    value: int
    s: int
    public_key: "PaillierPublicKey"

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", check_level(self.s))

    @property
    def byte_size(self) -> int:
        """Wire size of this ciphertext (an element of ``Z_{N^{s+1}}``)."""
        return self.public_key.ciphertext_bytes(self.s)

    def __add__(self, other: "Ciphertext") -> "Ciphertext":
        from repro.crypto.homomorphic import hom_add

        return hom_add(self, other)

    def __rmul__(self, scalar: int) -> "Ciphertext":
        from repro.crypto.homomorphic import hom_scalar_mul

        return hom_scalar_mul(scalar, self)


class PaillierPublicKey:
    """Public key: the modulus N plus cached powers of N."""

    __slots__ = ("n", "_n_powers", "_nonce_plans")

    def __init__(self, n: int) -> None:
        if n < 15:
            raise CryptoError("modulus too small")
        self.n = n
        self._n_powers: dict[int, int] = {0: 1, 1: n}
        self._nonce_plans: dict[int, fastexp.WindowPlan] = {}

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PaillierPublicKey) and self.n == other.n

    def __hash__(self) -> int:
        return hash(("PaillierPublicKey", self.n))

    def __repr__(self) -> str:
        return f"PaillierPublicKey(bits={self.key_bits})"

    @property
    def key_bits(self) -> int:
        """Key size in bits (the bit length of N)."""
        return self.n.bit_length()

    def n_pow(self, e: int) -> int:
        """``N ** e`` with memoization (moduli are reused constantly)."""
        cached = self._n_powers.get(e)
        if cached is None:
            cached = self.n**e
            self._n_powers[e] = cached
        return cached

    def plaintext_modulus(self, s: int = 1) -> int:
        """The plaintext space modulus ``N^s``."""
        return self.n_pow(check_level(s))

    def ciphertext_modulus(self, s: int = 1) -> int:
        """The ciphertext space modulus ``N^{s+1}``."""
        return self.n_pow(check_level(s) + 1)

    def ciphertext_bytes(self, s: int = 1) -> int:
        """Wire size in bytes of one level-``s`` ciphertext.

        An eps_1 ciphertext occupies ``2 * keysize / 8`` bytes and an eps_2
        ciphertext ``3 * keysize / 8`` — the L_e and 2x-L_e lengths of the
        paper's cost analysis (Sections 6-7).
        """
        return ((check_level(s) + 1) * self.key_bits + 7) // 8

    def check_plaintext(self, plaintext: int, s: int = 1) -> None:
        """Raise :class:`CryptoError` unless ``0 <= plaintext < N^s``."""
        if not 0 <= plaintext < self.plaintext_modulus(s):
            raise CryptoError(
                f"plaintext out of range for s={s}: need 0 <= m < N^{s}"
            )

    def g_pow(self, m: int, s: int = 1) -> int:
        """``(1 + N)^m mod N^{s+1}`` via the s-term binomial expansion.

        Uses ``C(m, i) mod N^{s+1}`` computed iteratively with modular
        inverses of the (small, N-coprime) integers ``i``.
        """
        mod = self.ciphertext_modulus(s)
        m_mod = m % mod
        acc = 1
        coeff = 1
        n_power = 1
        for i in range(1, s + 1):
            coeff = coeff * ((m_mod - i + 1) % mod) % mod
            coeff = coeff * invmod(i, mod) % mod
            n_power = n_power * self.n
            acc = (acc + coeff * n_power) % mod
        return acc

    def nonce_plan(self, s: int = 1) -> fastexp.WindowPlan:
        """The cached window program of the fixed nonce exponent ``N^s``.

        Decomposed once per (key, level) — zero multiplications — and
        shared by :meth:`encrypt`, :meth:`rerandomize`, and the nonce
        pool's refills.
        """
        s = check_level(s)
        plan = self._nonce_plans.get(s)
        if plan is None:
            plan = fastexp.plan(self.n_pow(s))
            self._nonce_plans[s] = plan
        return plan

    def obfuscate(self, r: int, s: int = 1) -> int:
        """The obfuscation factor ``r^{N^s} mod N^{s+1}`` of nonce ``r``."""
        mod_cipher = self.ciphertext_modulus(s)
        if fastexp.enabled():
            return self.nonce_plan(s).powmod(r, mod_cipher)
        return pow(r, self.n_pow(s), mod_cipher)

    def random_unit(self, rng: random.Random) -> int:
        """A random element of ``Z*_N`` (the encryption nonce r)."""
        # A unit check via gcd; failure would expose a factor of N and is
        # astronomically unlikely for honest keys, so repeated failures can
        # only mean the modulus itself is degenerate.
        for _ in range(_RANDOM_UNIT_ATTEMPTS):
            r = rng.randrange(1, self.n)
            if gcd(r, self.n) == 1:
                return r
        raise CryptoError(
            f"no unit found in Z*_N after {_RANDOM_UNIT_ATTEMPTS} draws; "
            "the modulus is degenerate (far too many small factors)"
        )

    def encrypt(
        self,
        plaintext: int,
        s: int = 1,
        rng: random.Random | None = None,
        secure: bool = True,
    ) -> Ciphertext:
        """Encrypt ``plaintext`` under level ``s``.

        ``secure=False`` skips the random-nonce exponentiation (r = 1); the
        result is deterministic and NOT semantically secure — used only by
        tests and micro-benchmarks that isolate other costs.
        """
        self.check_plaintext(plaintext, s)
        value = self.g_pow(plaintext, s)
        if secure:
            rng = rng or random.Random()
            r = self.random_unit(rng)
            mod_cipher = self.ciphertext_modulus(s)
            value = value * self.obfuscate(r, s) % mod_cipher
        return Ciphertext(value=value, s=s, public_key=self)

    def encrypt_with_factor(
        self, plaintext: int, factor: int, s: int = 1
    ) -> Ciphertext:
        """Encrypt with a ready-made obfuscation factor ``r^{N^s}``.

        The nonce-pool path: the expensive exponentiation already happened
        offline, so only the binomial ``(1+N)^m`` and one combine multiply
        remain.  The factor must come from :meth:`obfuscate` (or a pool
        refilled under *this* key) for the ciphertext to be decryptable.
        """
        self.check_plaintext(plaintext, s)
        mod_cipher = self.ciphertext_modulus(s)
        value = self.g_pow(plaintext, s) * factor % mod_cipher
        return Ciphertext(value=value, s=s, public_key=self)

    def rerandomize(self, c: Ciphertext, rng: random.Random) -> Ciphertext:
        """Multiply by a fresh encryption of zero (same plaintext, new nonce)."""
        if c.public_key != self:
            raise CryptoError("ciphertext does not belong to this key")
        mod_cipher = self.ciphertext_modulus(c.s)
        r = self.random_unit(rng)
        value = c.value * self.obfuscate(r, c.s) % mod_cipher
        return Ciphertext(value=value, s=c.s, public_key=self)


class _OwnerLevel(NamedTuple):
    """Constants of :meth:`PaillierPrivateKey.obfuscate` at one level ``s``."""

    stage_p: int  # q^s reduced modulo p - 1 (Fermat), in [1, p - 1]
    stage_q: int
    series_p: tuple[int, ...]  # Horner coefficients of the lift (_lift_series)
    series_q: tuple[int, ...]
    mod_p: int  # p^{s+1}
    mod_q: int
    garner: int  # (q^{s+1})^-1 mod p^{s+1}
    stages: tuple[tuple[int, int], ...]


class PaillierPrivateKey:
    """Secret key: the factorization of N, plus decryption precomputations."""

    __slots__ = (
        "public_key",
        "p",
        "q",
        "lam",
        "_lam_inv_cache",
        "_crt",
        "_crt_s",
        "_prime_plans",
        "_owner_levels",
    )

    def __init__(self, public_key: PaillierPublicKey, p: int, q: int) -> None:
        if p * q != public_key.n:
            raise CryptoError("p * q does not match the public modulus")
        if p == q:
            raise CryptoError("p and q must be distinct")
        self.public_key = public_key
        self.p = p
        self.q = q
        self.lam = lcm(p - 1, q - 1)
        self._lam_inv_cache: dict[int, int] = {}
        self._crt: tuple[int, int, int, int, int] | None = None
        self._crt_s: dict[int, tuple[int, int, int, int, int]] = {}
        self._prime_plans: tuple[fastexp.WindowPlan, fastexp.WindowPlan] | None = None
        self._owner_levels: dict[int, _OwnerLevel] = {}

    def prime_plans(self) -> tuple[fastexp.WindowPlan, fastexp.WindowPlan]:
        """Window programs of the fixed CRT exponents ``p - 1`` and ``q - 1``.

        A plan depends only on its exponent, so the same pair serves every
        Damgård–Jurik level (the per-level modulus changes, the exponent
        does not).
        """
        plans = self._prime_plans
        if plans is None:
            plans = (fastexp.plan(self.p - 1), fastexp.plan(self.q - 1))
            self._prime_plans = plans
        return plans

    def _owner_level(self, s: int) -> _OwnerLevel:
        """Per-level constants of the two-stage nonce factor (see :meth:`obfuscate`)."""
        s = check_level(s)
        level = self._owner_levels.get(s)
        if level is None:
            p, q = self.p, self.q
            ps, qs = p**s, q**s
            ps1, qs1 = ps * p, qs * q
            half = self.public_key.key_bits // 2
            width = (s + 1) * half
            # Exponents are kept in [1, prime - 1] rather than [0, prime - 2]
            # so a nonce divisible by the prime still maps to 0 in stage one.
            stage_p = (qs - 1) % (p - 1) + 1
            stage_q = (ps - 1) % (q - 1) + 1
            # Stage two: the (prime - 1) chain, s - 1 full Horner steps and
            # the multiply by x; at s = 1 that is binary_pow_cost(prime).
            level = _OwnerLevel(
                stage_p=stage_p,
                stage_q=stage_q,
                series_p=_lift_series(p, s),
                series_q=_lift_series(q, s),
                mod_p=ps1,
                mod_q=qs1,
                garner=invmod(qs1, ps1),
                stages=(
                    (fastexp.binary_pow_cost(stage_p), half),
                    (fastexp.binary_pow_cost(p - 1) + s, width),
                    (fastexp.binary_pow_cost(stage_q), half),
                    (fastexp.binary_pow_cost(q - 1) + s, width),
                    (2, width),  # Garner: one modular and one plain multiply
                ),
            )
            self._owner_levels[s] = level
        return level

    def obfuscate(self, r: int, s: int = 1) -> int:
        """``r^{N^s} mod N^{s+1}`` for the key holder, at half width.

        Modulo ``p^{s+1}``, ``r^{N^s} = (r^{q^s})^{p^s}``.  Stage one:
        Fermat's little theorem gives ``x = r^{q^s} mod p`` from
        ``(r mod p)`` raised to ``q^s mod (p - 1)``.  Stage two: ``x^{p^s}
        mod p^{s+1}`` depends only on ``x mod p`` (it is ``x``'s Teichmüller
        lift), and is built as ``x * u^E`` from one ``u = x^{p-1}`` chain
        modulo ``p^{s+1}`` and a binomial series in ``u - 1`` of ``s + 1``
        terms (:func:`_teichmuller`); at ``s = 1`` that is just ``x^p``.
        Likewise for ``q``, and Garner joins the halves.
        Value-identical to :meth:`PaillierPublicKey.obfuscate` for every
        ``r`` in ``Z_N``; with the fast paths off it is builtin ``pow``.
        """
        public = self.public_key
        if not fastexp.enabled():
            return pow(r, public.plaintext_modulus(s), public.ciphertext_modulus(s))
        level = self._owner_level(s)
        p, q = self.p, self.q
        xp = _teichmuller(pow(r % p, level.stage_p, p), p, level.mod_p, level.series_p)
        xq = _teichmuller(pow(r % q, level.stage_q, q), q, level.mod_q, level.series_q)
        return xq + level.mod_q * ((xp - xq) * level.garner % level.mod_p)

    def obfuscate_stages(self, s: int = 1) -> tuple[tuple[int, int], ...]:
        """``(multiplications, modulus bits)`` of each step of :meth:`obfuscate`.

        Per prime: stage one, a binary square-and-multiply model of its
        ``pow`` modulo the prime; stage two, the model of the ``(p - 1)``
        chain modulo ``p^{s+1}`` plus the series' ``s - 1`` full Horner
        steps and the multiply by ``x``.  Then Garner.  With the fast paths
        off, one full-width ``pow``.  A model, not a count: CPython 3.11
        switches to a sliding window above 60-bit exponents, and both
        stage exponents have about half the key's bits at every level.
        """
        if not fastexp.enabled():
            public = self.public_key
            return (
                (
                    fastexp.binary_pow_cost(public.plaintext_modulus(s)),
                    (s + 1) * public.key_bits,
                ),
            )
        return self._owner_level(s).stages

    def encrypt(
        self, plaintext: int, s: int = 1, rng: random.Random | None = None
    ) -> Ciphertext:
        """The key holder's encryption: :meth:`PaillierPublicKey.encrypt`
        with the nonce factor built by :meth:`obfuscate`.

        The nonce comes from the same ``random_unit`` draw, so the
        ciphertext is byte-identical to the public path at the same rng
        state.
        """
        public = self.public_key
        public.check_plaintext(plaintext, s)
        r = public.random_unit(rng or random.Random())
        value = public.g_pow(plaintext, s) * self.obfuscate(r, s)
        return Ciphertext(
            value=value % public.ciphertext_modulus(s), s=s, public_key=public
        )

    def __repr__(self) -> str:
        return f"PaillierPrivateKey(bits={self.public_key.key_bits})"

    def _lam_inv(self, s: int) -> int:
        """``lambda^{-1} mod N^s``, cached per level."""
        inv = self._lam_inv_cache.get(s)
        if inv is None:
            inv = invmod(self.lam, self.public_key.n_pow(s))
            self._lam_inv_cache[s] = inv
        return inv

    def _extract(self, u: int, s: int) -> int:
        """Damgård–Jurik recursion: recover ``m mod N^s`` from ``(1+N)^m``.

        ``u`` must be congruent to 1 modulo N.  Builds the base-N digits of
        ``m`` one level at a time, correcting with binomial terms (the
        published decryption algorithm of [10]).
        """
        return _extract_dlog(u, self.public_key.n, s)

    def decrypt(self, c: Ciphertext, use_crt: bool = True) -> int:
        """Decrypt a level-``s`` ciphertext back to its plaintext in ``Z_{N^s}``.

        The CRT fast path is used by default at every level: half-size
        exponents and moduli per prime factor (the standard Paillier
        optimization, generalized to Damgård–Jurik levels ``s >= 2``).
        Pass ``use_crt=False`` to force the generic path — both are exact,
        and the equivalence test compares them across s in {1, 2, 3}.
        """
        return self.decrypt_with_path(c, use_crt)[0]

    def decrypt_with_path(
        self, c: Ciphertext, use_crt: bool = True
    ) -> tuple[int, str]:
        """Decrypt and report which path ran: ``"crt"`` or ``"generic"``.

        The CRT path is only an optimization of the generic one when its
        preconditions hold; it silently falls back when they do not:

        - ``p == q`` (a degenerate key smuggled past the constructor) makes
          Garner recombination divide by ``gcd(p, q) != 1``;
        - a ciphertext value sharing a factor with N (an adversarial value
          such as 0, p, or a multiple — never produced by honest
          encryption, whose values are units) breaks the per-prime
          exponent-order argument and the two paths diverge.

        Honest ciphertexts always take the CRT path, so the fallback does
        not change any previously-correct output.  The path tag feeds the
        ``crypto.decryptions.crt`` / ``.generic`` metrics split.
        """
        if c.public_key != self.public_key:
            raise CryptoError("ciphertext was produced under a different key")
        if use_crt and self.p != self.q and gcd(c.value, self.public_key.n) == 1:
            if c.s == 1:
                return self._decrypt_crt(c.value), "crt"
            return self._decrypt_crt_level(c.value, c.s), "crt"
        mod_cipher = self.public_key.ciphertext_modulus(c.s)
        u = pow(c.value, self.lam, mod_cipher)
        m_lam = self._extract(u, c.s)
        return m_lam * self._lam_inv(c.s) % self.public_key.n_pow(c.s), "generic"

    def _crt_params(self) -> tuple[int, int, int, int, int]:
        """(p^2, q^2, hp, hq, q^-1 mod p) for the s = 1 fast path.

        ``hp = L_p((1+N)^{p-1} mod p^2)^-1 mod p`` folds the generator term
        and the lambda inverse into one precomputed constant per prime.
        """
        if self._crt is None:
            p, q, n = self.p, self.q, self.public_key.n
            p2 = p * p
            q2 = q * q
            hp = invmod((pow(1 + n, p - 1, p2) - 1) // p % p, p)
            hq = invmod((pow(1 + n, q - 1, q2) - 1) // q % q, q)
            self._crt = (p2, q2, hp, hq, invmod(q, p))
        return self._crt

    def _prime_pow(self, value: int, which: int, modulus: int) -> int:
        """``value^{p-1}`` (which=0) or ``value^{q-1}`` (which=1) mod ``modulus``.

        Windowed through the cached fixed-exponent plans when the fast
        paths are on; plain ``pow`` otherwise.  Value-identical either way.
        """
        if fastexp.enabled():
            return self.prime_plans()[which].powmod(value, modulus)
        exponent = (self.p if which == 0 else self.q) - 1
        return pow(value, exponent, modulus)

    def _decrypt_crt(self, value: int) -> int:
        """CRT decryption of an eps_1 ciphertext value."""
        p, q = self.p, self.q
        p2, q2, hp, hq, q_inv = self._crt_params()
        mp = (self._prime_pow(value % p2, 0, p2) - 1) // p % p * hp % p
        mq = (self._prime_pow(value % q2, 1, q2) - 1) // q % q * hq % q
        # Garner recombination: m = mq + q * ((mp - mq) * q^-1 mod p).
        return (mq + q * ((mp - mq) * q_inv % p)) % self.public_key.n

    def _crt_params_level(self, s: int) -> tuple[int, int, int, int, int]:
        """(p^{s+1}, q^{s+1}, hp, hq, (q^s)^-1 mod p^s) for level ``s``.

        ``hp`` inverts the combined generator/lambda term per prime:
        ``c^{p-1} mod p^{s+1}`` equals ``(1+N)^{m(p-1)}`` (the nonce
        component has order dividing ``p^s (p-1)`` and is annihilated by
        the ``q^s`` factor hidden in ``N^s``), and its discrete log to
        base ``1 + p`` is ``m * Dp mod p^s`` with the invertible constant
        ``Dp = dlog_{1+p}((1+N)^{p-1})``.
        """
        params = self._crt_s.get(s)
        if params is None:
            p, q, n = self.p, self.q, self.public_key.n
            ps1, qs1 = p ** (s + 1), q ** (s + 1)
            ps, qs = p**s, q**s
            hp = invmod(_extract_dlog(pow(1 + n, p - 1, ps1), p, s), ps)
            hq = invmod(_extract_dlog(pow(1 + n, q - 1, qs1), q, s), qs)
            params = (ps1, qs1, hp, hq, invmod(qs, ps))
            self._crt_s[s] = params
        return params

    def _decrypt_crt_level(self, value: int, s: int) -> int:
        """CRT decryption of a level-``s`` ciphertext value (any ``s >= 1``)."""
        p, q = self.p, self.q
        ps1, qs1, hp, hq, qs_inv = self._crt_params_level(s)
        ps, qs = p**s, q**s
        mp = _extract_dlog(self._prime_pow(value % ps1, 0, ps1), p, s) * hp % ps
        mq = _extract_dlog(self._prime_pow(value % qs1, 1, qs1), q, s) * hq % qs
        # Garner recombination modulo N^s = p^s * q^s.
        return mq + qs * ((mp - mq) * qs_inv % ps)

    def decrypt_nested(self, c: Ciphertext) -> int:
        """Decrypt a doubly encrypted value: ``Dec_1(Dec_2(c))``.

        PPGNN-OPT's second selection phase produces an eps_2 ciphertext whose
        plaintext is itself an eps_1 ciphertext value (Section 6); this
        helper performs the two decryptions the coordinator runs.
        """
        return self.decrypt_nested_with_path(c)[0]

    def decrypt_nested_with_path(
        self, c: Ciphertext
    ) -> tuple[int, tuple[str, str]]:
        """:meth:`decrypt_nested` plus the (outer, inner) path tags."""
        if c.s != 2:
            raise CryptoError("nested decryption expects an eps_2 ciphertext")
        inner_value, outer_path = self.decrypt_with_path(c)
        inner = Ciphertext(value=inner_value, s=1, public_key=self.public_key)
        plaintext, inner_path = self.decrypt_with_path(inner)
        return plaintext, (outer_path, inner_path)


class KeyPair(NamedTuple):
    """The (secret, public) pair returned by ``Gen`` — the paper's (sk, pk)."""

    secret_key: PaillierPrivateKey
    public_key: PaillierPublicKey


@lru_cache(maxsize=8)
def _cached_keypair(keysize: int, seed: int) -> KeyPair:
    rng = random.Random(seed)
    p, q = generate_distinct_primes(keysize // 2, rng)
    public = PaillierPublicKey(p * q)
    return KeyPair(PaillierPrivateKey(public, p, q), public)


def generate_keypair(keysize: int = 1024, seed: int | None = None) -> KeyPair:
    """The ``Gen`` algorithm: produce ``(sk, pk)`` for a given key size.

    ``keysize`` is the bit length of the modulus N (the paper's default is
    1024).  Passing a ``seed`` makes key generation deterministic *and
    cached*, which benchmarks and tests use to amortize prime generation;
    production use should leave ``seed`` as None.
    """
    if keysize < 16 or keysize % 2:
        raise CryptoError("keysize must be an even number of bits >= 16")
    if seed is not None:
        return _cached_keypair(keysize, seed)
    rng = random.Random()
    p, q = generate_distinct_primes(keysize // 2, rng)
    public = PaillierPublicKey(p * q)
    return KeyPair(PaillierPrivateKey(public, p, q), public)
