"""Fast exponentiation kernels: value identity and exact mul ledgers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import fastexp
from repro.crypto.fastexp import (
    MulLedger,
    WindowPlan,
    binary_pow_cost,
    multi_pow,
    multi_pow_cost,
)
from repro.crypto.paillier import generate_keypair
from repro.errors import CryptoError


class TestWindowPlan:
    @pytest.mark.parametrize("window", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize(
        "exponent", [0, 1, 2, 3, 0b1011, 255, 256, (1 << 64) - 1, 123456789]
    )
    def test_value_identical_to_pow(self, exponent, window):
        plan = WindowPlan(exponent, window)
        modulus = 2**61 - 1
        for base in (0, 1, 2, 7, modulus - 1, 987654321):
            assert plan.powmod(base, modulus) == pow(base, exponent, modulus)

    def test_program_reassembles_exponent(self):
        # The window program is just a radix decomposition: replaying it
        # over integers (shift-and-add in the exponent) must rebuild e.
        for exponent in (1, 6, 0b1011, 0xDEADBEEF, (1 << 80) + 12345):
            plan = WindowPlan(exponent, 4)
            rebuilt = None
            for shift, digit in plan.program:
                if rebuilt is None:
                    rebuilt = digit
                else:
                    rebuilt = (rebuilt << shift) + digit
            assert rebuilt == exponent

    def test_ledger_matches_analytic_cost(self):
        plan = WindowPlan(0xDEADBEEFCAFE, 5)
        ledger = MulLedger()
        plan.powmod(3, 2**61 - 1, ledger)
        assert ledger.muls == plan.per_call_muls
        assert plan.per_call_muls == plan.table_muls + plan.chain_muls

    def test_width_one_degenerates_to_binary(self):
        # w=1 is square-and-multiply: same count the profiler's binary
        # model (pow_mul_estimate) has always charged.
        for exponent in (2, 3, 0b1011, 0xFFFF, 123456789):
            assert WindowPlan(exponent, 1).per_call_muls == binary_pow_cost(
                exponent
            )

    def test_plan_picks_cheapest_width(self):
        exponent = (1 << 256) - 12345
        best = fastexp.plan(exponent)
        costs = [
            WindowPlan(exponent, w).per_call_muls
            for w in range(1, fastexp.MAX_WINDOW + 1)
        ]
        assert best.per_call_muls == min(costs)
        assert best.per_call_muls < binary_pow_cost(exponent)

    def test_rejects_bad_inputs(self):
        with pytest.raises(CryptoError):
            WindowPlan(-1, 3)
        with pytest.raises(CryptoError):
            WindowPlan(5, 0)
        with pytest.raises(CryptoError):
            WindowPlan(5, fastexp.MAX_WINDOW + 1)

    @settings(max_examples=150, deadline=None)
    @given(
        exponent=st.integers(min_value=0, max_value=(1 << 192) - 1),
        base=st.integers(min_value=0, max_value=(1 << 64) - 1),
        window=st.integers(min_value=1, max_value=8),
    )
    def test_powmod_property(self, exponent, base, window):
        modulus = (1 << 127) - 1
        plan = WindowPlan(exponent, window)
        ledger = MulLedger()
        assert plan.powmod(base, modulus, ledger) == pow(base, exponent, modulus)
        assert ledger.muls == plan.per_call_muls


class TestMultiPow:
    def test_matches_product_of_pows(self):
        rng = random.Random(11)
        modulus = (1 << 127) - 1
        pairs = [
            (rng.randrange(modulus), rng.randrange(1 << 96)) for _ in range(8)
        ]
        expected = 1
        for base, exponent in pairs:
            expected = expected * pow(base, exponent, modulus) % modulus
        ledger = MulLedger()
        assert multi_pow(pairs, modulus, ledger=ledger) == expected
        assert ledger.muls == multi_pow_cost([e for _, e in pairs])

    def test_single_term_and_zero_exponents(self):
        modulus = 101
        assert multi_pow([(7, 13)], modulus) == pow(7, 13, modulus)
        assert multi_pow([(7, 0), (9, 0)], modulus) == 1
        assert multi_pow([], modulus) == 1

    def test_cheaper_than_independent_chains(self):
        rng = random.Random(3)
        exponents = [rng.randrange(1 << 256) for _ in range(8)]
        assert multi_pow_cost(exponents) < sum(
            binary_pow_cost(e) for e in exponents
        )

    def test_rejects_negative_exponent(self):
        with pytest.raises(CryptoError):
            multi_pow([(2, -1)], 101)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=(1 << 48) - 1),
                st.integers(min_value=0, max_value=(1 << 48) - 1),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_multi_pow_property(self, pairs):
        modulus = (1 << 61) - 1
        expected = 1
        for base, exponent in pairs:
            expected = expected * pow(base, exponent, modulus) % modulus
        assert multi_pow(pairs, modulus) == expected


class TestOwnerObfuscate:
    """The key holder's two-stage CRT nonce factor (``sk.obfuscate``)."""

    def test_matches_builtin_pow_across_levels(self):
        keypair = generate_keypair(128, seed=54321)
        sk, pk = keypair.secret_key, keypair.public_key
        rng = random.Random(5)
        for s in (1, 2, 3):
            mod = pk.ciphertext_modulus(s)
            for _ in range(4):
                r = pk.random_unit(rng)
                assert sk.obfuscate(r, s) == pow(r, pk.n_pow(s), mod)

    def test_ledger_matches_cost(self):
        from repro.crypto.noncepool import NoncePool

        keypair = generate_keypair(128, seed=54321)
        sk, pk = keypair.secret_key, keypair.public_key
        for s in (1, 2, 3):
            with fastexp.forced(True):
                stages = sk.obfuscate_stages(s)
                pool = NoncePool(pk, sk)
                pool.refill(3, s=s, rng=random.Random(s))
            # Stage one runs modulo a prime, stage two modulo its (s+1)-th
            # power, then Garner: each counted at its own width.
            assert [bits for _, bits in stages] == [64, 64 * (s + 1)] * 2 + [
                64 * (s + 1)
            ]
            # Stage two is the (p - 1) chain, s - 1 Horner steps and the
            # multiply by x; at s = 1 that is the plain x^p chain.
            assert stages[1][0] == binary_pow_cost(sk.p - 1) + s
            if s == 1:
                assert stages[1][0] == binary_pow_cost(sk.p**s)
            assert stages[-1][0] == 2
            assert pool.stats.fast_muls == 3 * sum(m for m, _ in stages)

    @settings(max_examples=80, deadline=None)
    @given(
        keysize=st.sampled_from([64, 128]),
        s=st.integers(min_value=1, max_value=4),
        data=st.data(),
    )
    def test_lift_matches_builtin_pow(self, keysize, s, data):
        sk, pk = generate_keypair(keysize, seed=54321)
        r = data.draw(
            st.one_of(
                st.integers(min_value=0, max_value=pk.n - 1),
                st.integers(min_value=0, max_value=sk.q - 1).map(lambda k: k * sk.p),
                st.integers(min_value=0, max_value=sk.p - 1).map(lambda k: k * sk.q),
            )
        )
        with fastexp.forced(True):
            got = sk.obfuscate(r, s)
        assert got == pow(r, pk.n_pow(s), pk.ciphertext_modulus(s))

    @pytest.mark.parametrize("keysize", [512, 1024])
    def test_lift_matches_builtin_pow_at_protocol_sizes(self, keysize):
        sk, pk = generate_keypair(keysize, seed=20260808)
        rng = random.Random(keysize)
        for s in (2, 3):
            mod = pk.ciphertext_modulus(s)
            for r in (pk.random_unit(rng), 5 * sk.p, pk.n - 1):
                with fastexp.forced(True):
                    got = sk.obfuscate(r, s)
                assert got == pow(r, pk.n_pow(s), mod)

    def test_rejects_degenerate_inputs(self):
        from repro.crypto.paillier import PaillierPrivateKey, PaillierPublicKey

        with pytest.raises(CryptoError):
            PaillierPrivateKey(PaillierPublicKey(251 * 251), 251, 251)
        # Nonces sharing a factor with N are never drawn, yet the kernel
        # stays value-identical on them too.
        keypair = generate_keypair(128, seed=54321)
        sk, pk = keypair.secret_key, keypair.public_key
        for s in (1, 2, 3):
            mod = pk.ciphertext_modulus(s)
            for r in (0, 1, sk.p, sk.q, 3 * sk.p, pk.n - 1):
                assert sk.obfuscate(r, s) == pow(r, pk.n_pow(s), mod)


class TestToggle:
    def test_forced_restores_previous_setting(self):
        before = fastexp.enabled()
        with fastexp.forced(not before):
            assert fastexp.enabled() is (not before)
            with fastexp.forced(before):
                assert fastexp.enabled() is before
            assert fastexp.enabled() is (not before)
        assert fastexp.enabled() is before

    def test_set_enabled_returns_previous(self):
        before = fastexp.set_enabled(False)
        try:
            assert fastexp.enabled() is False
        finally:
            fastexp.set_enabled(before)
