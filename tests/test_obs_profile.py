"""Profiled key wrappers: op accounting without behavioural drift."""

import random

import pytest

from repro.crypto.paillier import generate_keypair
from repro.obs import KeyProfiler, OpProfile, pow_mul_estimate, profile_keypair


@pytest.fixture()
def profiled():
    return profile_keypair(generate_keypair(128, seed=54321))


class TestPowMulEstimate:
    @pytest.mark.parametrize(
        ("exponent", "muls"),
        [
            (0, 0),
            (1, 0),
            (2, 1),  # one squaring
            (3, 2),  # one squaring + one multiply
            (0b1011, 5),  # 3 squarings + 2 multiplies
        ],
    )
    def test_square_and_multiply_counts(self, exponent, muls):
        got_muls, work = pow_mul_estimate(exponent, 64)
        assert got_muls == muls
        assert work == muls  # (64/64)^2 == 1

    def test_work_scales_quadratically_with_modulus(self):
        _, small = pow_mul_estimate(255, 64)
        _, large = pow_mul_estimate(255, 128)
        assert large == 4 * small


class TestProfiledKeys:
    def test_answers_identical_to_plain_keys(self, profiled):
        plain = generate_keypair(128, seed=54321)
        keys, _ = profiled
        rng_a, rng_b = random.Random(5), random.Random(5)
        for m in (0, 1, 12345):
            c_plain = plain.public_key.encrypt(m, rng=rng_a)
            c_prof = keys.public_key.encrypt(m, rng=rng_b)
            assert c_plain.value == c_prof.value
            assert keys.secret_key.decrypt(c_prof) == m

    def test_ciphertexts_interoperate_with_plain_keys(self, profiled):
        plain = generate_keypair(128, seed=54321)
        keys, _ = profiled
        c = plain.public_key.encrypt(7, rng=random.Random(1))
        # Profiled secret key accepts a ciphertext made under the plain pk.
        assert keys.secret_key.decrypt(c) == 7

    def test_encrypt_and_decrypt_paths_accounted(self, profiled):
        keys, profiler = profiled
        rng = random.Random(9)
        c = keys.public_key.encrypt(42, rng=rng)
        keys.secret_key.decrypt(c)
        assert profiler.ops["encrypt"].calls == 1
        assert profiler.ops["encrypt"].bigint_muls > 0
        assert profiler.ops["decrypt.crt"].calls == 1
        assert "decrypt.generic" not in profiler.ops

    def test_generic_fallback_accounted_separately(self, profiled):
        keys, profiler = profiled
        c = keys.public_key.encrypt(42, rng=random.Random(9))
        keys.secret_key.decrypt(c, use_crt=False)
        assert profiler.ops["decrypt.generic"].calls == 1
        assert "decrypt.crt" not in profiler.ops

    def test_crt_estimated_cheaper_than_generic(self, profiled):
        """The analytic model must agree that CRT halves the limb work."""
        keys, profiler = profiled
        rng = random.Random(3)
        c = keys.public_key.encrypt(5, rng=rng)
        keys.secret_key.decrypt(c)
        keys.secret_key.decrypt(c, use_crt=False)
        assert (
            profiler.ops["decrypt.crt"].mul_work
            < profiler.ops["decrypt.generic"].mul_work
        )

    def test_rerandomize_accounted(self, profiled):
        keys, profiler = profiled
        rng = random.Random(2)
        c = keys.public_key.encrypt(5, rng=rng)
        keys.public_key.rerandomize(c, rng)
        assert profiler.ops["rerandomize"].calls == 1

    def test_insecure_encrypt_cost_is_small(self, profiled):
        keys, profiler = profiled
        keys.public_key.encrypt(5, secure=False)
        assert profiler.ops["encrypt"].bigint_muls == 2  # 2s with s=1


class TestProfileSerialization:
    def test_wall_time_excluded_by_default(self):
        profile = OpProfile()
        profile.record(3, 12.0, 0.5)
        assert "wall_seconds" not in profile.to_dict()
        assert profile.to_dict(include_wall=True)["wall_seconds"] == 0.5

    def test_profiler_merge_and_sorted_dict(self):
        a, b = KeyProfiler(), KeyProfiler()
        a.profile("encrypt").record(1, 1.0, 0.0)
        b.profile("encrypt").record(2, 2.0, 0.0)
        b.profile("decrypt.crt").record(3, 3.0, 0.0)
        a.merge(b)
        data = a.to_dict()
        assert list(data) == ["decrypt.crt", "encrypt"]
        assert data["encrypt"]["calls"] == 2
        assert data["encrypt"]["bigint_muls"] == 3


class TestHandCountedOps:
    """Satellite fix: counters must equal hand-counted op costs."""

    def test_secure_encrypt_charges_chain_plus_binomial_plus_combine(self):
        from repro.crypto import fastexp

        keys, profiler = profile_keypair(generate_keypair(128, seed=54321))
        pk = keys.public_key
        with fastexp.forced(True):
            pk.encrypt(5, rng=random.Random(1))
            plan = pk.nonce_plan(1)
            # Hand count: windowed chain + 2s binomial muls + 1 combine.
            assert profiler.ops["encrypt"].bigint_muls == plan.chain_muls + 2 + 1
            # The odd-power table is charged apart from per-call work.
            assert profiler.ops["encrypt.tables"].bigint_muls == plan.table_muls

    def test_secure_encrypt_slow_path_uses_binary_model(self):
        from repro.crypto import fastexp

        keys, profiler = profile_keypair(generate_keypair(128, seed=54321))
        pk = keys.public_key
        with fastexp.forced(False):
            pk.encrypt(5, rng=random.Random(1))
            nonce_muls, _ = pow_mul_estimate(pk.n, 2 * pk.key_bits)
            assert profiler.ops["encrypt"].bigint_muls == nonce_muls + 2 + 1
            assert "encrypt.tables" not in profiler.ops

    def test_secure_encrypt_level_two_charges_two_s_binomial_muls(self):
        from repro.crypto import fastexp

        keys, profiler = profile_keypair(generate_keypair(128, seed=54321))
        pk = keys.public_key
        with fastexp.forced(True):
            pk.encrypt(5, s=2, rng=random.Random(1))
            plan = pk.nonce_plan(2)
            assert profiler.ops["encrypt"].bigint_muls == plan.chain_muls + 4 + 1

    def test_pooled_encrypt_not_charged_a_nonce_exponentiation(self):
        from repro.crypto.noncepool import NoncePool, encrypt_with_pool

        keys, profiler = profile_keypair(generate_keypair(128, seed=54321))
        pk = keys.public_key
        pool = NoncePool(pk)
        pool.refill(1, rng=random.Random(3))
        c = encrypt_with_pool(pool, 9)
        assert keys.secret_key.decrypt(c) == 9
        # Only the 2s binomial muls + 1 combine; the exponentiation was
        # paid offline by the refill.
        assert profiler.ops["encrypt.pooled"].bigint_muls == 3
        assert profiler.ops["encrypt.pooled"].calls == 1
        assert "encrypt" not in profiler.ops

    def test_rerandomize_charges_chain_plus_one(self):
        from repro.crypto import fastexp

        keys, profiler = profile_keypair(generate_keypair(128, seed=54321))
        pk = keys.public_key
        with fastexp.forced(True):
            c = pk.encrypt(5, rng=random.Random(1))
            pk.rerandomize(c, random.Random(2))
            plan = pk.nonce_plan(1)
            assert profiler.ops["rerandomize"].bigint_muls == plan.chain_muls + 1
            assert (
                profiler.ops["rerandomize.tables"].bigint_muls == plan.table_muls
            )

    def test_crt_decrypt_charges_windowed_prime_chains(self):
        from repro.crypto import fastexp

        keys, profiler = profile_keypair(generate_keypair(128, seed=54321))
        with fastexp.forced(True):
            c = keys.public_key.encrypt(5, rng=random.Random(1))
            keys.secret_key.decrypt(c)
            plan_p, plan_q = keys.secret_key.prime_plans()
            assert (
                profiler.ops["decrypt.crt"].bigint_muls
                == plan_p.chain_muls + plan_q.chain_muls
            )
            assert (
                profiler.ops["decrypt.crt.tables"].bigint_muls
                == plan_p.table_muls + plan_q.table_muls
            )

    def test_fast_encrypt_cheaper_than_binary_model(self):
        from repro.crypto import fastexp

        keys, _ = profile_keypair(generate_keypair(128, seed=54321))
        pk = keys.public_key
        with fastexp.forced(True):
            plan = pk.nonce_plan(1)
            binary, _ = pow_mul_estimate(pk.n, 2 * pk.key_bits)
            assert plan.per_call_muls < binary

    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_owner_encrypt_charges_each_stage_at_its_width(self, s):
        from repro.crypto import fastexp
        from repro.crypto.fastexp import binary_pow_cost

        keys, profiler = profile_keypair(generate_keypair(128, seed=54321))
        sk, pk = keys.secret_key, keys.public_key
        with fastexp.forced(True):
            sk.encrypt(5, s=s, rng=random.Random(1))
        p, q, half = sk.p, sk.q, pk.key_bits // 2
        # Hand count: per prime a Fermat stage modulo the prime and a lift
        # modulo its (s+1)-th power (the (prime - 1) chain, s - 1 Horner
        # steps and the multiply by x), then 2 Garner muls, then the 2s
        # binomial muls and 1 combine at full width.
        stage_one = binary_pow_cost(q**s % (p - 1)) + binary_pow_cost(p**s % (q - 1))
        lift = binary_pow_cost(p - 1) + binary_pow_cost(q - 1) + 2 * s
        if s == 1:
            assert lift == binary_pow_cost(p**s) + binary_pow_cost(q**s)
        owner = profiler.ops["encrypt.owner"]
        assert owner.bigint_muls == stage_one + lift + 2 + 2 * s + 1
        assert owner.mul_work == pytest.approx(
            stage_one * (half / 64) ** 2
            + (lift + 2) * ((s + 1) * half / 64) ** 2
            + (2 * s + 1) * ((s + 1) * pk.key_bits / 64) ** 2
        )
        assert "encrypt" not in profiler.ops
        # Half width: less limb-weighted work than the public path.
        with fastexp.forced(True):
            pk.encrypt(5, s=s, rng=random.Random(1))
        public = profiler.ops["encrypt"].mul_work + profiler.ops["encrypt.tables"].mul_work
        assert owner.mul_work < public
