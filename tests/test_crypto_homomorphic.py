"""Tests for the homomorphic operators (Eqns 2-4, Theorem 3.1, Section 6)."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.homomorphic import (
    OpCounter,
    encrypt_indicator,
    hom_add,
    hom_dot,
    hom_scalar_mul,
    matrix_select,
    nested_select,
)
from repro.crypto.noncepool import NoncePool, pooled_indicator
from repro.crypto.paillier import generate_keypair
from repro.errors import CryptoError

small_ints = st.integers(min_value=0, max_value=2**32)


@pytest.fixture(scope="module")
def kp():
    return generate_keypair(128, seed=31337)


class TestHomomorphicAddition:
    @settings(max_examples=20, deadline=None)
    @given(small_ints, small_ints)
    def test_addition_property(self, a, b):
        sk, pk = generate_keypair(128, seed=31337)
        rng = random.Random(a ^ b)
        c = hom_add(pk.encrypt(a, rng=rng), pk.encrypt(b, rng=rng))
        assert sk.decrypt(c) == (a + b) % pk.n

    def test_addition_wraps_modulo_n(self, kp):
        sk, pk = kp
        big = pk.n - 1
        c = hom_add(pk.encrypt(big), pk.encrypt(2))
        assert sk.decrypt(c) == 1

    def test_mixed_levels_rejected(self, kp):
        _, pk = kp
        with pytest.raises(CryptoError):
            hom_add(pk.encrypt(1, s=1), pk.encrypt(1, s=2))

    def test_mixed_keys_rejected(self, kp):
        _, pk = kp
        other = generate_keypair(128, seed=999).public_key
        with pytest.raises(CryptoError):
            hom_add(pk.encrypt(1), other.encrypt(1))

    def test_operator_sugar(self, kp):
        sk, pk = kp
        assert sk.decrypt(pk.encrypt(2) + pk.encrypt(3)) == 5
        assert sk.decrypt(4 * pk.encrypt(3)) == 12


class TestScalarMultiplication:
    @settings(max_examples=20, deadline=None)
    @given(small_ints, st.integers(min_value=0, max_value=1000))
    def test_scalar_property(self, m, x):
        sk, pk = generate_keypair(128, seed=31337)
        c = hom_scalar_mul(x, pk.encrypt(m, rng=random.Random(m)))
        assert sk.decrypt(c) == (x * m) % pk.n

    def test_negative_scalar_wraps(self, kp):
        sk, pk = kp
        c = hom_scalar_mul(-1, pk.encrypt(5))
        assert sk.decrypt(c) == pk.n - 5

    def test_zero_scalar(self, kp):
        sk, pk = kp
        assert sk.decrypt(hom_scalar_mul(0, pk.encrypt(77))) == 0


class TestDotProduct:
    def test_dot_product_value(self, kp):
        sk, pk = kp
        rng = random.Random(1)
        xs = [3, 0, 7, 2]
        vs = [10, 20, 30, 40]
        c = hom_dot(xs, [pk.encrypt(v, rng=rng) for v in vs])
        assert sk.decrypt(c) == sum(x * v for x, v in zip(xs, vs, strict=True))

    def test_zero_scalars_are_skipped(self, kp):
        _, pk = kp
        counter = OpCounter()
        hom_dot([0, 0, 5], [pk.encrypt(v) for v in (1, 2, 3)], counter)
        assert counter.scalar_muls == 1  # only the non-zero term costs work

    def test_length_mismatch(self, kp):
        _, pk = kp
        with pytest.raises(CryptoError):
            hom_dot([1], [pk.encrypt(1), pk.encrypt(2)])

    def test_empty_rejected(self, kp):
        with pytest.raises(CryptoError):
            hom_dot([], [])

    @pytest.mark.parametrize("terms", [1, 2])
    @pytest.mark.parametrize(
        "bad",
        [2.0, 2.5, None, "3", True, np.float64(2.0), np.bool_(True)],
        ids=["float", "fraction", "none", "str", "bool", "np-float", "np-bool"],
    )
    def test_non_integer_scalar_rejected(self, kp, bad, terms):
        # These used to fail deep inside with a bare TypeError,
        # AttributeError (bit_length) or OverflowError, or (a bool) count.
        _, pk = kp
        scalars = [bad] + [3] * (terms - 1)
        ciphertexts = [pk.encrypt(v, rng=random.Random(v)) for v in range(1, terms + 1)]
        with pytest.raises(CryptoError, match="integers"):
            hom_dot(scalars, ciphertexts)
        with pytest.raises(CryptoError, match="integers"):
            matrix_select([scalars], ciphertexts)

    def test_numpy_integer_scalars_count_as_ints(self, kp):
        sk, pk = kp
        ciphertexts = [pk.encrypt(v, rng=random.Random(v)) for v in (10, 20, 30, 40)]
        scalars = [np.int64(3), np.int32(0), np.uint8(7), np.int64(-2)]
        c = hom_dot(scalars, ciphertexts)
        assert c.value == hom_dot([3, 0, 7, -2], ciphertexts).value
        assert sk.decrypt(c) == (3 * 10 + 7 * 30 - 2 * 40) % pk.n


class TestPrivateSelection:
    """Theorem 3.1: A (x) [v] extracts exactly the hot column."""

    def test_selects_each_column(self, kp):
        sk, pk = kp
        matrix = [[11, 21, 31], [12, 22, 32], [13, 23, 33]]
        for hot in range(3):
            indicator = encrypt_indicator(pk, 3, hot, rng=random.Random(hot))
            selected = matrix_select(matrix, indicator)
            assert [sk.decrypt(c) for c in selected] == [row[hot] for row in matrix]

    def test_large_entries_near_n(self, kp):
        sk, pk = kp
        # Answer encodings approach N; selection must not overflow.
        big = pk.n - 1
        matrix = [[big, 5]]
        indicator = encrypt_indicator(pk, 2, 0, rng=random.Random(0))
        assert sk.decrypt(matrix_select(matrix, indicator)[0]) == big

    def test_ragged_matrix_rejected(self, kp):
        _, pk = kp
        indicator = encrypt_indicator(pk, 2, 0)
        with pytest.raises(CryptoError):
            matrix_select([[1, 2], [3]], indicator)

    def test_indicator_bounds(self, kp):
        _, pk = kp
        with pytest.raises(CryptoError):
            encrypt_indicator(pk, 3, 3)
        with pytest.raises(CryptoError):
            encrypt_indicator(pk, 3, -1)

    @pytest.mark.parametrize(
        "length, hot",
        [(3, 1.5), (3, 1.0), (3, True), (3, "1"), (3.0, 1), (True, 0), (0, 0), (-2, 0)],
    )
    @pytest.mark.parametrize("entry", ["secret", "public", "pooled"])
    def test_indicator_arguments_are_integers(self, kp, entry, length, hot):
        # A float hot index matched no slot: three encryptions of 0, a
        # vector that selects nothing; a float length raised TypeError.
        sk, pk = kp
        with pytest.raises(CryptoError):
            if entry == "pooled":
                pooled_indicator(NoncePool(pk, sk), length, hot)
            else:
                encrypt_indicator(sk if entry == "secret" else pk, length, hot)

    def test_indicator_accepts_numpy_integers(self, kp):
        sk, _ = kp
        indicator = encrypt_indicator(sk, np.int64(3), np.int64(1))
        assert [sk.decrypt(c) for c in indicator] == [0, 1, 0]

    def test_counter_tracks_encryptions(self, kp):
        _, pk = kp
        counter = OpCounter()
        encrypt_indicator(pk, 5, 2, counter=counter)
        assert counter.encryptions == 5


class TestNestedSelection:
    """Section 6: two-phase selection over blocks."""

    def test_selects_across_blocks(self, kp):
        sk, pk = kp
        rng = random.Random(7)
        # Matrix of 4 columns split into 2 blocks of 2; m = 2 rows.
        blocks_plain = [[[11, 21], [12, 22]], [[31, 41], [32, 42]]]
        for hot_block in range(2):
            for hot_within in range(2):
                inner = encrypt_indicator(pk, 2, hot_within, rng=rng)
                outer = encrypt_indicator(pk, 2, hot_block, s=2, rng=rng)
                phase1 = [matrix_select(b, inner) for b in blocks_plain]
                result = nested_select(phase1, outer)
                expected_col = [
                    blocks_plain[hot_block][row][hot_within] for row in range(2)
                ]
                assert [sk.decrypt_nested(c) for c in result] == expected_col

    def test_outer_must_be_level_two(self, kp):
        _, pk = kp
        inner = encrypt_indicator(pk, 2, 0)
        phase1 = [matrix_select([[1, 2]], inner)]
        with pytest.raises(CryptoError):
            nested_select(phase1, encrypt_indicator(pk, 1, 0, s=1))

    def test_block_count_mismatch(self, kp):
        _, pk = kp
        inner = encrypt_indicator(pk, 2, 0)
        phase1 = [matrix_select([[1, 2]], inner)]
        outer = encrypt_indicator(pk, 2, 0, s=2)
        with pytest.raises(CryptoError):
            nested_select(phase1, outer)

    def test_ragged_blocks_rejected(self, kp):
        _, pk = kp
        inner = encrypt_indicator(pk, 2, 0)
        phase1 = [
            matrix_select([[1, 2]], inner),
            matrix_select([[1, 2], [3, 4]], inner),
        ]
        outer = encrypt_indicator(pk, 2, 0, s=2)
        with pytest.raises(CryptoError):
            nested_select(phase1, outer)


class TestOpCounter:
    def test_merge_and_total(self):
        a = OpCounter(additions=1, scalar_muls=2, encryptions=3, decryptions=4)
        b = OpCounter(additions=10)
        a.merge(b)
        assert a.additions == 11
        assert a.total == 11 + 2 + 3 + 4
