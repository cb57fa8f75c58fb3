"""Homomorphic operators over Damgård–Jurik ciphertexts.

Implements the paper's Eqns (2)-(4) and Theorem 3.1:

- :func:`hom_add`         — Eqn (2), ciphertext * ciphertext = Enc(x1 + x2),
- :func:`hom_scalar_mul`  — Eqn (3), ciphertext ^ x1 = Enc(x1 * x2),
- :func:`hom_dot`         — Eqn (4), plaintext-vector (.) encrypted-vector,
- :func:`matrix_select`   — Theorem 3.1, the private selection A (x) [v],
- :func:`nested_select`   — Section 6, the second-phase selection that treats
  eps_1 ciphertexts as eps_2 plaintexts.

An optional :class:`OpCounter` receives one tick per primitive ciphertext
operation so protocols can report exact operation counts alongside wall
time (used by tests for deterministic cost assertions).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Sequence

from repro.crypto import fastexp
from repro.crypto.paillier import (
    Ciphertext,
    PaillierPrivateKey,
    PaillierPublicKey,
)
from repro.errors import ConfigurationError, CryptoError, positive_int


@dataclass
class OpCounter:
    """Tallies of homomorphic primitive operations."""

    additions: int = 0
    scalar_muls: int = 0
    encryptions: int = 0
    decryptions: int = 0

    def merge(self, other: "OpCounter") -> None:
        """Accumulate another counter into this one."""
        self.additions += other.additions
        self.scalar_muls += other.scalar_muls
        self.encryptions += other.encryptions
        self.decryptions += other.decryptions

    @property
    def total(self) -> int:
        return self.additions + self.scalar_muls + self.encryptions + self.decryptions


def _check_compatible(a: Ciphertext, b: Ciphertext) -> None:
    if a.public_key != b.public_key:
        raise CryptoError("ciphertexts under different public keys")
    if a.s != b.s:
        raise CryptoError(f"ciphertext levels differ: s={a.s} vs s={b.s}")


def hom_add(a: Ciphertext, b: Ciphertext, counter: OpCounter | None = None) -> Ciphertext:
    """Eqn (2): Enc(x1) (+) Enc(x2) = Enc(x1 + x2) via ciphertext product."""
    _check_compatible(a, b)
    if counter is not None:
        counter.additions += 1
    mod = a.public_key.ciphertext_modulus(a.s)
    return Ciphertext(a.value * b.value % mod, a.s, a.public_key)


def hom_scalar_mul(scalar: int, c: Ciphertext, counter: OpCounter | None = None) -> Ciphertext:
    """Eqn (3): x1 (x) Enc(x2) = Enc(x1 * x2) via ciphertext exponentiation.

    The scalar is reduced into the plaintext space ``Z_{N^s}`` first, so
    negative scalars work (they wrap around, exactly as plaintexts do).
    """
    if counter is not None:
        counter.scalar_muls += 1
    pk = c.public_key
    exponent = scalar % pk.plaintext_modulus(c.s)
    mod = pk.ciphertext_modulus(c.s)
    return Ciphertext(pow(c.value, exponent, mod), c.s, pk)


def hom_dot(
    scalars: Sequence[int],
    ciphertexts: Sequence[Ciphertext],
    counter: OpCounter | None = None,
    ledger: "fastexp.MulLedger | None" = None,
) -> Ciphertext:
    """Eqn (4): plaintext vector x (.) encrypted vector [v] = Enc(x . v).

    Scalars equal to zero are skipped: ``Enc(v)^0 = 1`` contributes nothing,
    and the answer matrix is mostly zero padding, so this is a significant
    constant-factor win that does not change the result.

    With the fast paths on, two or more surviving terms evaluate through
    one interleaved multi-exponentiation (:func:`~repro.crypto.fastexp.
    multi_pow`) — one shared squaring chain instead of one per term —
    producing the identical ciphertext value.  ``counter`` keeps the
    *logical* per-term tallies either way (the cost model depends on
    them); ``ledger``, when given, receives the exact big-integer
    multiplication count of whichever evaluation ran.
    """
    if len(scalars) != len(ciphertexts):
        raise CryptoError(
            f"dot product length mismatch: {len(scalars)} vs {len(ciphertexts)}"
        )
    if not ciphertexts:
        raise CryptoError("dot product over empty vectors")
    pk = ciphertexts[0].public_key
    s = ciphertexts[0].s
    mod = pk.ciphertext_modulus(s)
    plain_mod = pk.plaintext_modulus(s)
    terms: list[tuple[int, int]] = []
    for x, c in zip(scalars, ciphertexts, strict=True):
        if c.public_key != pk or c.s != s:
            raise CryptoError("mixed keys or levels in dot product")
        x_red = x % plain_mod
        if x_red == 0:
            continue
        if counter is not None:
            counter.scalar_muls += 1
            counter.additions += 1
        terms.append((c.value, x_red))
    if fastexp.enabled() and len(terms) >= 2:
        acc = fastexp.multi_pow(terms, mod, ledger=ledger)
    else:
        acc = 1
        for value, exponent in terms:
            acc = acc * pow(value, exponent, mod) % mod
        if ledger is not None and terms:
            ledger.add(
                sum(fastexp.binary_pow_cost(e) for _, e in terms)
                + len(terms)
                - 1
            )
    return Ciphertext(acc, s, pk)


def matrix_select(
    matrix: Sequence[Sequence[int]],
    indicator: Sequence[Ciphertext],
    counter: OpCounter | None = None,
) -> list[Ciphertext]:
    """Theorem 3.1: ``A (x) [v]`` — privately select one column of A.

    ``matrix`` is row-major with shape (m, len(indicator)); when ``[v]``
    encrypts the standard basis vector e_i the result is the element-wise
    encryption of column i.
    """
    width = len(indicator)
    for row in matrix:
        if len(row) != width:
            raise CryptoError("matrix width does not match indicator length")
    return [hom_dot(row, indicator, counter) for row in matrix]


def nested_select(
    blocks: Sequence[Sequence[Ciphertext]],
    outer_indicator: Sequence[Ciphertext],
    counter: OpCounter | None = None,
) -> list[Ciphertext]:
    """Section 6 phase two: select one block of eps_1 results under eps_2.

    ``blocks[b]`` holds the m eps_1 ciphertexts produced by the first-phase
    selection on sub-matrix b; ``outer_indicator`` is the element-wise eps_2
    encryption of a basis vector over blocks.  Each eps_1 ciphertext *value*
    (an integer below N^2) is treated as an eps_2 plaintext, giving m eps_2
    ciphertexts whose plaintexts are the selected block's eps_1 ciphertexts.
    """
    if len(blocks) != len(outer_indicator):
        raise CryptoError("block count does not match outer indicator length")
    if not blocks:
        raise CryptoError("nested selection over zero blocks")
    m = len(blocks[0])
    for block in blocks:
        if len(block) != m:
            raise CryptoError("ragged phase-one blocks")
    for c in outer_indicator:
        if c.s != 2:
            raise CryptoError("outer indicator must be encrypted at level s=2")
    result = []
    for row in range(m):
        scalars = [block[row].value for block in blocks]
        result.append(hom_dot(scalars, outer_indicator, counter))
    return result


def check_indicator(length: object, hot_index: object) -> tuple[int, int]:
    """``(length, hot_index)`` of a basis-vector indicator, checked.

    ``length`` must pass :func:`~repro.errors.positive_int` and
    ``hot_index`` must be an integer (not a bool) in ``[0, length)``;
    anything else raises :class:`CryptoError`.  An unchecked float index
    matches no slot and would encrypt a vector that selects nothing.
    """
    try:
        length = positive_int(length, "indicator length")
    except ConfigurationError as exc:
        raise CryptoError(str(exc)) from None
    if isinstance(hot_index, bool) or not isinstance(hot_index, numbers.Integral):
        raise CryptoError(
            f"hot index must be an integer, not {type(hot_index).__name__} "
            f"{hot_index!r}"
        )
    if not 0 <= hot_index < length:
        raise CryptoError(f"hot index {hot_index} out of range [0, {length})")
    return length, int(hot_index)


def encrypt_indicator(
    key: PaillierPublicKey | PaillierPrivateKey,
    length: int,
    hot_index: int,
    s: int = 1,
    rng=None,
    counter: OpCounter | None = None,
) -> list[Ciphertext]:
    """Element-wise encryption of the basis vector e_{hot_index} of ``length``.

    The workhorse of query generation (Algorithm 1 line 10 and the two small
    vectors of PPGNN-OPT).  ``key`` is whichever key the caller holds: the
    coordinator passes its secret key and encrypts at half width, as one
    batch (:meth:`~repro.crypto.paillier.PaillierPrivateKey.encrypt_many`),
    anyone else the public key; the ciphertexts are the same either way.
    """
    length, hot_index = check_indicator(length, hot_index)
    if counter is not None:
        counter.encryptions += length
    plaintexts = [0] * length
    plaintexts[hot_index] = 1
    if isinstance(key, PaillierPrivateKey):
        return key.encrypt_many(plaintexts, s=s, rng=rng)
    return [key.encrypt(m, s=s, rng=rng) for m in plaintexts]
