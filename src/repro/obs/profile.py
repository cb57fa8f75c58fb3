"""Opt-in profiling wrappers for the Paillier keys.

``ProfiledPublicKey`` / ``ProfiledPrivateKey`` are drop-in *subclasses* of
the real keys (so ``isinstance`` equality and ciphertext compatibility
checks keep passing) that additionally account, per operation class, for:

- **calls** — how many operations ran;
- **bigint_muls** — an analytic estimate of big-integer multiplications:
  a ``pow(b, e, m)`` via square-and-multiply costs
  ``(e.bit_length() - 1)`` squarings plus ``(popcount(e) - 1)`` multiplies;
- **mul_work** — the same count weighted by ``(mod_bits / 64) ** 2``, a
  schoolbook-multiplication proxy that makes half-size CRT limbs
  comparable to full-size generic limbs;
- **wall_seconds** — real elapsed time (nondeterministic; excluded from
  ``to_dict`` by default so profiles can sit in deterministic reports).

The estimates are exact for the binary exponentiation CPython uses on
small exponents and a stable proxy on large ones — good enough to answer
"did the CRT path really halve the work", which is what benchmarks assert.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.crypto import fastexp
from repro.crypto.paillier import (
    Ciphertext,
    KeyPair,
    PaillierPrivateKey,
    PaillierPublicKey,
)


def pow_mul_estimate(exponent: int, mod_bits: int) -> tuple[int, float]:
    """(bigint multiplications, weighted work) for one ``pow(b, e, m)``."""
    e = abs(exponent)
    if e <= 1:
        muls = 0
    else:
        muls = (e.bit_length() - 1) + (e.bit_count() - 1)
    limb_factor = (mod_bits / 64.0) ** 2
    return muls, muls * limb_factor


def stage_work(stages) -> float:
    """Limb-weighted work of ``(multiplications, modulus bits)`` stages."""
    return sum(count * (bits / 64.0) ** 2 for count, bits in stages)


@dataclass
class OpProfile:
    """Accumulated cost of one operation class (e.g. ``decrypt.crt``)."""

    calls: int = 0
    bigint_muls: int = 0
    mul_work: float = 0.0
    wall_seconds: float = 0.0

    def record(self, muls: int, work: float, wall: float) -> None:
        self.calls += 1
        self.bigint_muls += muls
        self.mul_work += work
        self.wall_seconds += wall

    def merge(self, other: "OpProfile") -> None:
        self.calls += other.calls
        self.bigint_muls += other.bigint_muls
        self.mul_work += other.mul_work
        self.wall_seconds += other.wall_seconds

    def to_dict(self, include_wall: bool = False) -> dict:
        data = {
            "calls": self.calls,
            "bigint_muls": self.bigint_muls,
            "mul_work": round(self.mul_work, 3),
        }
        if include_wall:
            data["wall_seconds"] = self.wall_seconds
        return data


class KeyProfiler:
    """Per-op-class ledger shared by a profiled key pair."""

    def __init__(self) -> None:
        self.ops: dict[str, OpProfile] = {}

    def profile(self, op_class: str) -> OpProfile:
        profile = self.ops.get(op_class)
        if profile is None:
            profile = self.ops[op_class] = OpProfile()
        return profile

    def merge(self, other: "KeyProfiler") -> None:
        for op_class, profile in other.ops.items():
            self.profile(op_class).merge(profile)

    def to_dict(self, include_wall: bool = False) -> dict:
        return {
            op_class: self.ops[op_class].to_dict(include_wall)
            for op_class in sorted(self.ops)
        }


class ProfiledPublicKey(PaillierPublicKey):
    """A public key that accounts its encryptions and rerandomizations."""

    __slots__ = ("profiler",)

    def __init__(self, n: int, profiler: KeyProfiler | None = None) -> None:
        super().__init__(n)
        self.profiler = profiler if profiler is not None else KeyProfiler()

    def _nonce_cost(self, s: int) -> tuple[int, int]:
        """(chain muls, window-table muls) of one nonce exponentiation.

        With the fast paths on these are the *exact* counts of the cached
        window program; off, the square-and-multiply estimate of builtin
        ``pow`` (and no table).
        """
        if fastexp.enabled():
            plan = self.nonce_plan(s)
            return plan.chain_muls, plan.table_muls
        muls, _ = pow_mul_estimate(self.n_pow(s), (s + 1) * self.key_bits)
        return muls, 0

    def encrypt(self, plaintext, s=1, rng=None, secure=True) -> Ciphertext:
        started = time.perf_counter()
        result = super().encrypt(plaintext, s, rng, secure)
        wall = time.perf_counter() - started
        limb_factor = ((s + 1) * self.key_bits / 64.0) ** 2
        if secure:
            # The nonce exponentiation r^{N^s}, plus the same 2s-mul
            # binomial expansion the insecure path pays, plus the combine
            # multiply.  Window-table builds are charged under their own
            # op class so per-call chain work stays comparable across
            # window widths.
            chain, tables = self._nonce_cost(s)
            muls = chain + 2 * s + 1
            if tables:
                self.profiler.profile("encrypt.tables").record(
                    tables, tables * limb_factor, 0.0
                )
        else:
            # Only the s-term binomial expansion of (1+N)^m remains.
            muls = 2 * s
        self.profiler.profile("encrypt").record(muls, muls * limb_factor, wall)
        return result

    def encrypt_with_factor(self, plaintext, factor, s=1) -> Ciphertext:
        started = time.perf_counter()
        result = super().encrypt_with_factor(plaintext, factor, s)
        wall = time.perf_counter() - started
        # The nonce exponentiation happened offline (the pool paid for
        # it); this call only performs the binomial expansion and the
        # combine multiply.
        muls = 2 * s + 1
        limb_factor = ((s + 1) * self.key_bits / 64.0) ** 2
        self.profiler.profile("encrypt.pooled").record(
            muls, muls * limb_factor, wall
        )
        return result

    def rerandomize(self, c: Ciphertext, rng) -> Ciphertext:
        started = time.perf_counter()
        result = super().rerandomize(c, rng)
        wall = time.perf_counter() - started
        limb_factor = ((c.s + 1) * self.key_bits / 64.0) ** 2
        chain, tables = self._nonce_cost(c.s)
        if tables:
            self.profiler.profile("rerandomize.tables").record(
                tables, tables * limb_factor, 0.0
            )
        muls = chain + 1  # the multiply into the existing ciphertext
        self.profiler.profile("rerandomize").record(
            muls, muls * limb_factor, wall
        )
        return result


class ProfiledPrivateKey(PaillierPrivateKey):
    """A private key that accounts decryptions, split by path taken, and
    the key holder's own encryptions."""

    __slots__ = ("profiler",)

    def __init__(
        self,
        public_key: PaillierPublicKey,
        p: int,
        q: int,
        profiler: KeyProfiler | None = None,
    ) -> None:
        super().__init__(public_key, p, q)
        self.profiler = profiler if profiler is not None else KeyProfiler()

    def encrypt(self, plaintext, s=1, rng=None) -> Ciphertext:
        started = time.perf_counter()
        result = super().encrypt(plaintext, s, rng)
        wall = time.perf_counter() - started
        # Each stage of the owner's nonce factor at its own modulus width,
        # then the full-width binomial expansion and combine multiply.
        stages = self.obfuscate_stages(s)
        stages += ((2 * s + 1, (s + 1) * self.public_key.key_bits),)
        muls = sum(count for count, _ in stages)
        self.profiler.profile("encrypt.owner").record(
            muls, stage_work(stages), wall
        )
        return result

    def decrypt_with_path(self, c: Ciphertext, use_crt: bool = True):
        started = time.perf_counter()
        plaintext, path = super().decrypt_with_path(c, use_crt)
        wall = time.perf_counter() - started
        key_bits = self.public_key.key_bits
        if path == "crt":
            # Two half-size exponentiations with (prime - 1) exponents —
            # windowed through the cached per-prime plans when the fast
            # paths are on.
            half_factor = ((c.s + 1) * key_bits // 2 / 64.0) ** 2
            if fastexp.enabled():
                plan_p, plan_q = self.prime_plans()
                muls = plan_p.chain_muls + plan_q.chain_muls
                tables = plan_p.table_muls + plan_q.table_muls
                if tables:
                    self.profiler.profile("decrypt.crt.tables").record(
                        tables, tables * half_factor, 0.0
                    )
                work = muls * half_factor
            else:
                mp, wp = pow_mul_estimate(self.p - 1, (c.s + 1) * key_bits // 2)
                mq, wq = pow_mul_estimate(self.q - 1, (c.s + 1) * key_bits // 2)
                muls, work = mp + mq, wp + wq
        else:
            muls, work = pow_mul_estimate(self.lam, (c.s + 1) * key_bits)
        self.profiler.profile(f"decrypt.{path}").record(muls, work, wall)
        return plaintext, path


def profile_keypair(keypair: KeyPair) -> tuple[KeyPair, KeyProfiler]:
    """Wrap an existing key pair with profiling; one shared profiler.

    The profiled public key equals the original (same N) so ciphertexts
    produced under either interoperate freely.
    """
    profiler = KeyProfiler()
    public = ProfiledPublicKey(keypair.public_key.n, profiler)
    secret = ProfiledPrivateKey(
        public, keypair.secret_key.p, keypair.secret_key.q, profiler
    )
    return KeyPair(secret, public), profiler
