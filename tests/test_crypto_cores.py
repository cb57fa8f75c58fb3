"""Tests for the second-core helper of owner nonce factors, dot products,
sanitation tests and kGNN walks.

Every batch must return exactly the factors (and ciphertexts) that one
``obfuscate`` (or ``encrypt``) call per element returns, every split
product the value and count of ``fastexp.multi_pow`` over the whole term
list, every sanitation batch the outcomes of testing each candidate on
its own draws, and every split kGNN batch the answers and work counts of
one-group walks, whichever process computed them; every failure of the
helper must leave the batch and the next batch correct.  Tests that need
the helper itself skip on a one-CPU host and with ``REPRO_FASTEXP=0``,
where every batch runs inline.
"""

import contextlib
import os
import pickle
import random
import select
import signal
import threading
import time

import numpy as np
import pytest

from repro.core.sanitize import AnswerSanitizer
from repro.crypto import cores, fastexp
from repro.crypto.homomorphic import encrypt_indicator, hom_dot
from repro.crypto.noncepool import NoncePool
from repro.crypto.paillier import PaillierPrivateKey, generate_keypair
from repro.errors import CryptoError
from repro.datasets.synthetic import uniform_pois
from repro.geometry.space import LocationSpace
from repro.datasets.poi import POI
from repro.geometry.point import Point
from repro.gnn import mbm
from repro.gnn.aggregate import MAX, MIN, SUM, Aggregate
from repro.gnn.bruteforce import brute_force_kgnn
from repro.gnn.engine import GNNQueryEngine
from repro.index.base import IndexCounters
from repro.obs.profile import profile_keypair
from repro.stats.hypothesis import SanitationTestPlan

two_cpus = pytest.mark.skipif(
    cores._cpu_count() < 2 or not fastexp.enabled(),
    reason="the helper runs only with two or more CPUs and the fast paths on",
)

#: Seconds any wait on a child process may take before the test fails.
WAIT_S = 60.0


@pytest.fixture(autouse=True)
def fresh_helper():
    cores.shutdown()
    yield
    cores.shutdown()


@pytest.fixture(scope="module", params=[128, 512], ids=["128", "512"])
def keys(request):
    return generate_keypair(request.param, seed=97)


def nonces_of(pk, count, seed):
    rng = random.Random(seed)
    return [pk.random_unit(rng) for _ in range(count)]


def product_of(pk, s, count, seed):
    """``(pairs, modulus)`` of a level-``s`` dot product of ``count`` terms:
    ciphertext-sized bases, plaintext-sized exponents."""
    rng = random.Random(seed)
    modulus = pk.ciphertext_modulus(s)
    plain = pk.plaintext_modulus(s)
    return [(rng.randrange(modulus), rng.randrange(1, plain)) for _ in range(count)], modulus


@pytest.fixture
def fast_paths():
    with fastexp.forced(True):
        yield


@pytest.fixture
def always_split(monkeypatch):
    """Split every product of two or more terms, however small."""
    monkeypatch.setattr(cores, "SPLIT_FLOOR_WORK64", -1)


@pytest.fixture(scope="module")
def sanitation():
    """``(answers, candidates)`` of twelve candidate queries of four users."""
    engine = GNNQueryEngine(uniform_pois(600, seed=31))
    space = LocationSpace.unit_square()
    rng = np.random.default_rng(32)
    candidates = [space.sample_points(4, rng) for _ in range(12)]
    return engine.query_many(8, candidates), candidates


def sanitizer_of(aggregate=SUM, seed=0):
    plan = SanitationTestPlan.from_parameters(0.05, n_samples_override=4000)
    space = LocationSpace.unit_square()
    return AnswerSanitizer(space, aggregate, plan, np.random.default_rng(seed))


def reference_lengths(sanitizer, answers, candidates):
    """Each candidate's safe lengths on its own draws, tested in turn, and
    the sampler's state after them."""
    lengths = []
    for pois, candidate in zip(answers, candidates, strict=True):
        xs, ys = sanitizer.space.sample_arrays(sanitizer.plan.n_samples, sanitizer.rng)
        lengths.append(sanitizer._sanitize_incremental(pois, candidate, xs, ys).safe_lengths)
    return lengths, sanitizer.rng.bit_generator.state


def assert_sanitizes_right(sanitation, seed):
    answers, candidates = sanitation
    expected = reference_lengths(sanitizer_of(seed=seed), answers, candidates)
    sanitizer = sanitizer_of(seed=seed)
    outcomes = sanitizer.sanitize(answers, candidates)
    got = [o.safe_lengths for o in outcomes], sanitizer.rng.bit_generator.state
    assert got == expected
    assert [o.prefix for o in outcomes] == [
        tuple(pois[: min(lengths)]) for pois, lengths in zip(answers, expected[0], strict=True)
    ]


@pytest.fixture(scope="module")
def kgnn_engine():
    """An engine over 600 POIs with two POIs at every location."""
    pois = uniform_pois(300, seed=33)
    twins = [POI(poi.poi_id + 300, poi.location) for poi in pois]
    return GNNQueryEngine(pois + twins, max_entries=8)


def kgnn_groups(count, n, seed):
    rng = np.random.default_rng(seed)
    space = LocationSpace.unit_square()
    return [space.sample_points(n, rng) for _ in range(count)]


def one_group_walks(tree, groups, k, aggregate):
    """``(answers, (nodes, entries))`` of one inline walk per group."""
    counters = IndexCounters()
    answers = [mbm.mbm_kgnn(tree, group, k, aggregate, counters) for group in groups]
    return answers, (counters.nodes_visited, counters.candidates_scored)


def walks_right(tree, groups, k=6, aggregate=SUM) -> bool:
    """Whether a batch equals one-group walks exactly, counts included, and
    the brute-force oracle as ``(score, location)`` pairs."""
    counters = IndexCounters()
    got = mbm.mbm_kgnn_many(tree, groups, k, aggregate, counters)
    answers, counts = one_group_walks(tree, groups, k, aggregate)
    return (
        got == answers
        and (counters.nodes_visited, counters.candidates_scored) == counts
        and all(
            [(s, p) for p, _, s in answer]
            == [(s, p) for p, _, s in brute_force_kgnn(tree.entries(), group, k, aggregate)]
            for group, answer in zip(groups, got, strict=True)
        )
    )


@pytest.fixture
def shipped(monkeypatch):
    """The tokens of the views whose arrays this process sends, in order."""
    tokens = []
    original = mbm.view_arrays

    def recorded(view):
        tokens.append(view.token)
        return original(view)

    monkeypatch.setattr(mbm, "view_arrays", recorded)
    return tokens


def exits(pid: int) -> bool:
    """Whether child ``pid`` exits, or was already reaped, within WAIT_S;
    it is left unreaped."""
    deadline = time.monotonic() + WAIT_S
    while time.monotonic() < deadline:
        try:
            if os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is not None:
                return True
        except ChildProcessError:
            return True
        time.sleep(0.01)
    return False


class Overdue(Exception):
    """A test body ran past its time; not an ``OSError``, so no pipe
    operation's handler can take it for a helper failure."""


@contextlib.contextmanager
def overdue_after(seconds: float):
    """Raise :class:`Overdue` in the body if it still runs after ``seconds``."""

    def overdue(signum, frame):
        raise Overdue(f"still waiting after {seconds} s")

    previous = signal.signal(signal.SIGALRM, overdue)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def replies_waiting(helper) -> bool:
    """Whether the helper has written reply bytes the caller has not read,
    within WAIT_S."""
    poller = select.poll()
    poller.register(helper.replies, select.POLLIN)
    return bool(poller.poll(WAIT_S * 1000))


def stacked(groups):
    """Groups of one size as ``_walk`` takes them: users stacked (2, groups, n)."""
    return np.array([[[p.x for p in g] for g in groups], [[p.y for p in g] for g in groups]])


def wait_child(pid: int) -> int:
    """The exit status of child ``pid``; kill it and fail after WAIT_S."""
    deadline = time.monotonic() + WAIT_S
    while time.monotonic() < deadline:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        time.sleep(0.01)
    os.kill(pid, signal.SIGKILL)
    os.waitpid(pid, 0)
    pytest.fail(f"child {pid} still ran after {WAIT_S} s")


def fork_child(body) -> int:
    """Fork, run ``body()`` in the child and return the child's pid.

    The child exits 0 when ``body`` returns true and never returns into
    the test runner.
    """
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if body() else 1
        finally:
            cores.shutdown()
            os._exit(code)
    return pid


class TestValues:
    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "builtin"])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_batches_equal_per_element_calls(self, keys, s, fast):
        sk, pk = keys
        with fastexp.forced(fast):
            for size in (0, 1, 2, 3, 25):
                nonces = nonces_of(pk, size, seed=size)
                expected = [sk.obfuscate(r, s) for r in nonces]
                assert cores.obfuscate_many(sk, nonces, s) == expected

                plaintexts = [random.Random(size).randrange(pk.n**s) for _ in range(size)]
                batch = sk.encrypt_many(plaintexts, s, random.Random(size))
                one_rng = random.Random(size)
                singles = [sk.encrypt(m, s, one_rng) for m in plaintexts]
                assert [c.value for c in batch] == [c.value for c in singles]
                assert all(c.s == s for c in batch)

    @two_cpus
    def test_helper_runs_on_two_cpus_with_fast_paths(self, keys):
        sk, pk = keys
        cores.obfuscate_many(sk, nonces_of(pk, 3, seed=1), 1)
        assert cores._helper is not None and cores._helper.owner == os.getpid()

    def test_builtin_pow_oracle_stays_inline(self, keys):
        sk, pk = keys
        with fastexp.forced(False):
            cores.obfuscate_many(sk, nonces_of(pk, 4, seed=1), 1)
        assert cores._helper is None

    def test_indicator_equals_owner_encryptions(self, keys):
        sk, _ = keys
        for s in (1, 2):
            indicator = encrypt_indicator(sk, 7, 4, s=s, rng=random.Random(s))
            rng = random.Random(s)
            singles = [sk.encrypt(int(i == 4), s, rng) for i in range(7)]
            assert [c.value for c in indicator] == [c.value for c in singles]
            assert [sk.decrypt(c) for c in indicator] == [0, 0, 0, 0, 1, 0, 0]

    def test_owner_refill_keeps_factors_and_stats(self, keys):
        sk, pk = keys
        pool = NoncePool(pk, sk)
        pool.refill(64, rng=random.Random(11))
        expected = [sk.obfuscate(r, 1) for r in nonces_of(pk, 64, seed=11)]
        assert pool._factors[1] == expected
        muls = sum(m for m, _ in sk.obfuscate_stages(1))
        stats = pool.stats
        crt_split = 64 if fastexp.enabled() else 0
        assert (stats.precomputed, stats.refills, stats.crt_split) == (64, 1, crt_split)
        assert (stats.windowed, stats.pooled, stats.dry) == (0, 0, 0)
        assert stats.fast_muls == 64 * muls

    def test_profiled_owner_totals_match_single_encryptions(self, keys):
        for s in (1, 2):
            batch_keys, batch_profiler = profile_keypair(keys)
            single_keys, single_profiler = profile_keypair(keys)
            encrypt_indicator(batch_keys.secret_key, 9, 2, s=s, rng=random.Random(3))
            for m in range(9):
                single_keys.secret_key.encrypt(int(m == 2), s, random.Random(m))
            batch = batch_profiler.to_dict()["encrypt.owner"]
            single = single_profiler.to_dict()["encrypt.owner"]
            assert batch == single and batch["calls"] == 9


class TestProducts:
    @pytest.mark.parametrize("fast", [True, False], ids=["fast", "builtin"])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_split_products_equal_one_chain(self, keys, s, fast, always_split):
        _, pk = keys
        with fastexp.forced(fast):
            for size in (0, 1, 2, 3, 5, 25):
                pairs, modulus = product_of(pk, s, size, seed=size)
                whole = fastexp.multi_pow(pairs, modulus)
                assert cores.multi_pow(pairs, modulus) == whole
                assert cores.multi_pow(pairs, modulus) == whole  # a warm helper too

    @pytest.mark.usefixtures("fast_paths")
    def test_ledger_counts_the_whole_product_on_any_host(self, keys, monkeypatch):
        sk, pk = keys
        rng = random.Random(4)
        ciphertexts = [sk.encrypt(m, 1, rng) for m in range(25)]
        scalars = [rng.randrange(pk.n) for _ in ciphertexts]
        two = fastexp.MulLedger()
        with monkeypatch.context() as patch:
            patch.setattr(cores, "SPLIT_FLOOR_WORK64", -1)
            split = hom_dot(scalars, ciphertexts, ledger=two)
        one = fastexp.MulLedger()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        inline = hom_dot(scalars, ciphertexts, ledger=one)
        assert cores._helper is None or cores._helper.batch == 1  # one CPU: no request
        assert split.value == inline.value
        assert two.muls == one.muls == fastexp.multi_pow_cost(scalars)

    def test_product_below_the_floor_sends_no_request(self, keys):
        sk, pk = keys
        # The nested second row of PPGNN-OPT: five all-zero phase-one rows
        # select to Enc(0) = 1, so every exponent is 1 (4 multiplications).
        modulus = pk.ciphertext_modulus(2)
        ones = [(random.Random(i).randrange(modulus), 1) for i in range(5)]
        assert cores.multi_pow(ones, modulus) == fastexp.multi_pow(ones, modulus)
        assert cores._helper is None  # not even forked
        cores.obfuscate_many(sk, nonces_of(pk, 2, seed=1), 1)
        helper = cores._helper
        if helper is not None:
            batch = helper.batch
            assert cores.multi_pow(ones, modulus) == fastexp.multi_pow(ones, modulus)
            assert helper.batch == batch

    @two_cpus
    def test_large_product_splits_by_default(self):
        _, pk = generate_keypair(512, seed=97)
        pairs, modulus = product_of(pk, 1, 25, seed=3)
        assert cores.multi_pow(pairs, modulus) == fastexp.multi_pow(pairs, modulus)
        assert cores._helper is not None and cores._helper.batch == 1

    @two_cpus
    def test_caller_waits_for_the_helpers_side(self, keys, monkeypatch, always_split):
        """The helper sends nothing before its one item, and the caller still
        waits for it instead of computing that side again."""
        _, pk = keys
        calls = []
        original = fastexp.multi_pow

        def slow(*args, **kwargs):
            calls.append(os.getpid())  # the helper appends to its own copy
            time.sleep(0.1)
            return original(*args, **kwargs)

        monkeypatch.setattr(fastexp, "multi_pow", slow)  # the helper forks after this
        pairs, modulus = product_of(pk, 1, 6, seed=8)
        expected = original(pairs, modulus)
        for _ in range(3):
            del calls[:]
            assert cores.multi_pow(pairs, modulus) == expected
            assert calls == [os.getpid()]

    def test_estimated_cut_balances_the_modelled_sides(self):
        rng = random.Random(5)
        for size in range(0, 12):
            exponents = [rng.getrandbits(rng.choice((1, 8, 64, 200))) for _ in range(size)]
            cut, whole, head, tail = fastexp.estimated_cut(exponents)
            assert whole == pytest.approx(fastexp.estimated_cut(exponents[::-1])[1])
            if size < 2:
                assert (cut, head, tail) == (size, whole, 0)
                continue
            assert head == pytest.approx(fastexp.estimated_cut(exponents[:cut])[1])
            assert tail == pytest.approx(fastexp.estimated_cut(exponents[cut:])[1])
            assert max(head, tail) == pytest.approx(
                min(
                    max(
                        fastexp.estimated_cut(exponents[:k])[1],
                        fastexp.estimated_cut(exponents[k:])[1],
                    )
                    for k in range(1, size)
                )
            )

    def test_estimated_costs_track_the_exact_ones(self):
        """Exact for exponents 0 and 1, within 10% for long random ones."""
        for exponents in ([], [0, 0], [1] * 5, [0, 1, 1]):
            assert fastexp.estimated_cut(exponents)[1] == fastexp.multi_pow_cost(exponents)
        rng = random.Random(6)
        for bits in (64, 207, 528, 1024):
            exponents = [rng.getrandbits(bits) for _ in range(25)]
            estimate = fastexp.estimated_cut(exponents)[1]
            assert abs(estimate / fastexp.multi_pow_cost(exponents) - 1) < 0.1

    def test_negative_exponent_raises_before_any_request(self, keys):
        _, pk = keys
        pairs, modulus = product_of(pk, 1, 25, seed=9)
        pairs[3] = (pairs[3][0], -1)
        with pytest.raises(CryptoError):
            cores.multi_pow(pairs, modulus)
        assert cores._helper is None


class TestWhenInline:
    def test_one_cpu_affinity_runs_inline(self, keys, monkeypatch):
        sk, pk = keys
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        nonces = nonces_of(pk, 6, seed=2)
        assert cores.obfuscate_many(sk, nonces, 1) == [sk.obfuscate(r, 1) for r in nonces]
        assert cores._helper is None

    def test_second_live_thread_runs_inline(self, keys):
        sk, pk = keys
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(WAIT_S,))
        thread.start()
        try:
            nonces = nonces_of(pk, 6, seed=3)
            assert cores.obfuscate_many(sk, nonces, 1) == [sk.obfuscate(r, 1) for r in nonces]
            assert cores._helper is None
        finally:
            release.set()
            thread.join(timeout=WAIT_S)
        assert not thread.is_alive()

    def test_multiprocessing_child_runs_inline(self, keys, monkeypatch):
        import multiprocessing

        sk, pk = keys
        monkeypatch.setattr(multiprocessing, "parent_process", lambda: object())
        nonces = nonces_of(pk, 6, seed=4)
        assert cores.obfuscate_many(sk, nonces, 1) == [sk.obfuscate(r, 1) for r in nonces]
        assert cores._helper is None

    def test_single_factor_runs_inline(self, keys):
        sk, pk = keys
        nonces = nonces_of(pk, 1, seed=5)
        assert cores.obfuscate_many(sk, nonces, 2) == [sk.obfuscate(nonces[0], 2)]
        assert cores._helper is None


class FlakyKey(PaillierPrivateKey):
    """A key whose inline ``obfuscate`` raises on one chosen nonce."""

    __slots__ = ("bad", "error")

    def obfuscate(self, r, s=1):
        if r == self.bad:
            raise self.error
        return super().obfuscate(r, s)


class KnownFactorsKey(PaillierPrivateKey):
    """A key whose inline ``obfuscate`` looks its level-1 factors up."""

    __slots__ = ("known",)

    def obfuscate(self, r, s=1):
        return self.known[r]


@two_cpus
class TestFailures:
    def test_killed_helper_gives_right_values_next_batch(self, keys):
        sk, pk = keys
        first = nonces_of(pk, 8, seed=6)
        assert cores.obfuscate_many(sk, first, 1) == [sk.obfuscate(r, 1) for r in first]
        killed = cores._helper.pid
        os.kill(killed, signal.SIGKILL)
        # Dead before the next batch starts (left unreaped, so the batch reaps it).
        os.waitid(os.P_PID, killed, os.WEXITED | os.WNOWAIT)

        second = nonces_of(pk, 8, seed=7)
        assert cores.obfuscate_many(sk, second, 1) == [sk.obfuscate(r, 1) for r in second]
        with pytest.raises(ChildProcessError):
            os.waitpid(killed, os.WNOHANG)  # discarded and reaped

        third = nonces_of(pk, 8, seed=8)
        assert cores.obfuscate_many(sk, third, 1) == [sk.obfuscate(r, 1) for r in third]
        assert cores._helper.pid != killed

    @pytest.mark.parametrize("error", [RuntimeError("inline half"), KeyboardInterrupt()])
    def test_raising_inline_half_leaves_no_reply(self, keys, error):
        sk, pk = keys
        flaky = FlakyKey(pk, sk.p, sk.q)
        first = nonces_of(pk, 10, seed=9)
        flaky.bad, flaky.error = first[0], error
        with pytest.raises(type(error)):
            cores.obfuscate_many(flaky, first, 1)
        assert cores._helper is None

        # Same batch shape: a stale reply would have the right length.
        second = nonces_of(pk, 10, seed=10)
        assert cores.obfuscate_many(sk, second, 1) == [sk.obfuscate(r, 1) for r in second]

    def test_stopped_helper_does_not_stall_the_batch(self, keys):
        sk, pk = keys
        cores.obfuscate_many(sk, nonces_of(pk, 4, seed=16), 1)
        helper = cores._helper

        def overdue(signum, frame):
            raise TimeoutError(f"batch still waiting after {WAIT_S} s")

        previous = signal.signal(signal.SIGALRM, overdue)
        os.kill(helper.pid, signal.SIGSTOP)
        try:
            signal.setitimer(signal.ITIMER_REAL, WAIT_S)
            nonces = nonces_of(pk, 12, seed=17)
            assert cores.obfuscate_many(sk, nonces, 1) == [sk.obfuscate(r, 1) for r in nonces]
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            os.kill(helper.pid, signal.SIGCONT)
        assert cores._helper is helper  # still in service

        nonces = nonces_of(pk, 12, seed=18)
        assert cores.obfuscate_many(sk, nonces, 1) == [sk.obfuscate(r, 1) for r in nonces]

    def test_killed_helper_gives_right_products(self, keys, always_split):
        _, pk = keys
        pairs, modulus = product_of(pk, 1, 6, seed=1)
        assert cores.multi_pow(pairs, modulus) == fastexp.multi_pow(pairs, modulus)
        killed = cores._helper.pid
        os.kill(killed, signal.SIGKILL)
        os.waitid(os.P_PID, killed, os.WEXITED | os.WNOWAIT)
        for seed in (2, 3):
            pairs, modulus = product_of(pk, 2, 6, seed=seed)
            assert cores.multi_pow(pairs, modulus) == fastexp.multi_pow(pairs, modulus)
        assert cores._helper.pid != killed

    def test_stopped_helper_does_not_stall_a_product(self, keys, always_split):
        _, pk = keys
        pairs, modulus = product_of(pk, 1, 6, seed=4)
        cores.multi_pow(pairs, modulus)
        helper = cores._helper

        def overdue(signum, frame):
            raise TimeoutError(f"product still waiting after {WAIT_S} s")

        previous = signal.signal(signal.SIGALRM, overdue)
        os.kill(helper.pid, signal.SIGSTOP)
        try:
            signal.setitimer(signal.ITIMER_REAL, WAIT_S)
            for seed in (5, 6):
                pairs, modulus = product_of(pk, 1, 6, seed=seed)
                assert cores.multi_pow(pairs, modulus) == fastexp.multi_pow(pairs, modulus)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            os.kill(helper.pid, signal.SIGCONT)
        assert cores._helper is helper  # still in service

        pairs, modulus = product_of(pk, 3, 6, seed=7)
        assert cores.multi_pow(pairs, modulus) == fastexp.multi_pow(pairs, modulus)

    def test_late_replies_are_never_read_as_the_next_batchs(
        self, keys, monkeypatch, always_split
    ):
        """Products and owner batches of the same two-item shape, alternating,
        each leaving the helper's reply to arrive during the next batch."""
        sk, pk = keys
        cut = fastexp.estimated_cut
        # Cut after one term and call that side the costlier, so the caller
        # keeps it and hands the helper eleven: the caller stops waiting for
        # the long side and computes it too, so the helper's reply comes late.
        monkeypatch.setattr(
            fastexp, "estimated_cut", lambda exponents: (1, cut(exponents)[1], 1, 0)
        )
        # The caller's factors cost nothing, so it never waits for the
        # helper's, which also comes late.
        known = KnownFactorsKey(pk, sk.p, sk.q)
        for seed in range(6):
            pairs, modulus = product_of(pk, 1, 12, seed=seed)
            assert cores.multi_pow(pairs, modulus) == fastexp.multi_pow(pairs, modulus)
            nonces = nonces_of(pk, 2, seed=seed)
            known.known = {r: sk.obfuscate(r, 1) for r in nonces}
            assert cores.obfuscate_many(known, nonces, 1) == list(known.known.values())

    def test_helper_killed_mid_sanitation_gives_right_outcomes(self, sanitation, monkeypatch):
        assert_sanitizes_right(sanitation, seed=1)  # forks the helper
        killed = cores._helper.pid
        original = AnswerSanitizer._safe_lengths

        def kill_at_first(self, words, slot, *args):
            if slot == 0:
                os.kill(killed, signal.SIGKILL)
                # Dead before the caller looks again (left unreaped, so the
                # batch reaps it).
                os.waitid(os.P_PID, killed, os.WEXITED | os.WNOWAIT)
            return original(self, words, slot, *args)

        # Patched after the fork, so only the caller's tests kill.
        monkeypatch.setattr(AnswerSanitizer, "_safe_lengths", kill_at_first)
        assert_sanitizes_right(sanitation, seed=2)
        with pytest.raises(ChildProcessError):
            os.waitpid(killed, os.WNOHANG)  # discarded and reaped
        assert cores._helper is None
        monkeypatch.setattr(AnswerSanitizer, "_safe_lengths", original)
        assert_sanitizes_right(sanitation, seed=3)
        assert cores._helper.pid != killed

    def test_stopped_helper_does_not_stall_sanitation(self, sanitation, monkeypatch):
        assert_sanitizes_right(sanitation, seed=4)
        helper = cores._helper
        original = AnswerSanitizer._safe_lengths

        def stop_at_first(self, words, slot, *args):
            if slot == 0:
                os.kill(helper.pid, signal.SIGSTOP)
            return original(self, words, slot, *args)

        def overdue(signum, frame):
            raise TimeoutError(f"sanitation still waiting after {WAIT_S} s")

        previous = signal.signal(signal.SIGALRM, overdue)
        monkeypatch.setattr(AnswerSanitizer, "_safe_lengths", stop_at_first)
        try:
            signal.setitimer(signal.ITIMER_REAL, WAIT_S)
            assert_sanitizes_right(sanitation, seed=5)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            os.kill(helper.pid, signal.SIGCONT)
        assert cores._helper is helper  # still in service
        monkeypatch.setattr(AnswerSanitizer, "_safe_lengths", original)
        assert_sanitizes_right(sanitation, seed=6)

    def test_custom_aggregate_sends_no_request(self, sanitation):
        answers, candidates = sanitation
        assert_sanitizes_right(sanitation, seed=7)
        helper = cores._helper
        batch = helper.batch
        opaque_sum = Aggregate(
            "opaque-sum", lambda ds: float(sum(ds)), lambda m: m.sum(axis=1)
        )
        expected = reference_lengths(sanitizer_of(opaque_sum, seed=8), answers, candidates)
        sanitizer = sanitizer_of(opaque_sum, seed=8)
        outcomes = sanitizer.sanitize(answers, candidates)
        assert ([o.safe_lengths for o in outcomes], sanitizer.rng.bit_generator.state) == expected
        assert cores._helper is helper and helper.batch == batch

    def test_forked_child_never_uses_the_parents_pipes(self, keys):
        sk, pk = keys
        cores.obfuscate_many(sk, nonces_of(pk, 4, seed=11), 1)
        parent = cores._helper
        parent_fds = (parent.requests, parent.replies)

        def child() -> bool:
            if cores._helper is not None:
                return False
            for fd in parent_fds:
                try:
                    os.fstat(fd)
                except OSError:
                    continue
                return False  # still open after the fork
            nonces = nonces_of(pk, 6, seed=12)
            return cores.obfuscate_many(sk, nonces, 1) == [sk.obfuscate(r, 1) for r in nonces]

        assert wait_child(fork_child(child)) == 0
        assert cores._helper is parent
        nonces = nonces_of(pk, 6, seed=13)
        assert cores.obfuscate_many(sk, nonces, 1) == [sk.obfuscate(r, 1) for r in nonces]

    def test_shutdown_does_not_wait_for_other_pipe_holders(self, keys):
        sk, pk = keys
        cores.obfuscate_many(sk, nonces_of(pk, 4, seed=14), 1)
        helper = cores._helper
        held = os.dup(helper.requests)  # the helper never sees end of file
        try:
            started = time.monotonic()
            cores.shutdown()
            assert time.monotonic() - started < WAIT_S / 4
            with pytest.raises(ChildProcessError):
                os.waitpid(helper.pid, os.WNOHANG)
        finally:
            os.close(held)


@two_cpus
class TestKGNN:
    def test_batch_sends_its_view_once(self, kgnn_engine, shipped):
        tree = kgnn_engine.tree
        groups = kgnn_groups(9, 3, seed=1)
        for aggregate in (SUM, MAX, MIN):
            assert walks_right(tree, groups, 6, aggregate)
        token = tree.flat_view().token
        assert shipped == [token]
        assert cores._helper.view == token and cores._helper.batch == 3

    def test_helper_gets_the_view_after_insert_and_delete(self, shipped):
        engine = GNNQueryEngine(uniform_pois(400, seed=34), max_entries=8)
        groups = kgnn_groups(6, 4, seed=2)
        tokens = []
        for step in range(4):
            assert walks_right(engine.tree, groups)
            tokens.append(engine.tree.flat_view().token)
            assert cores._helper.view == tokens[-1]
            if step % 2:
                assert engine.delete(engine.pois[step])
            else:
                engine.insert(POI(1000 + step, Point(0.5, 0.5 + step / 100)))
        assert len(set(tokens)) == 4 and shipped == tokens

    def test_alternating_engines_send_each_view_again(self, shipped):
        first = GNNQueryEngine(uniform_pois(300, seed=35), max_entries=8)
        second = GNNQueryEngine(uniform_pois(300, seed=36), max_entries=8)
        groups = kgnn_groups(4, 2, seed=3)
        for engine in (first, second, first, second):
            assert walks_right(engine.tree, groups)
            assert cores._helper.view == engine.tree.flat_view().token
        tokens = [e.tree.flat_view().token for e in (first, second)]
        assert shipped == tokens * 2

    def test_view_the_helper_does_not_hold_ends_inline(self, kgnn_engine, shipped):
        """The caller believes the helper holds a view it was never sent: the
        helper must exit rather than walk other arrays."""
        other = GNNQueryEngine(uniform_pois(300, seed=37), max_entries=8)
        groups = kgnn_groups(6, 3, seed=4)
        assert walks_right(kgnn_engine.tree, groups)
        helper = cores._helper
        helper.view = other.tree.flat_view().token  # never sent
        assert walks_right(other.tree, groups)
        assert exits(helper.pid)
        # The caller sees the pipe close during that batch or at its next
        # request, walks inline, and a new helper gets the view.
        for _ in range(2):
            assert walks_right(other.tree, groups)
        assert cores._helper.pid != helper.pid
        assert shipped == [kgnn_engine.tree.flat_view().token, other.tree.flat_view().token]

    def test_helper_killed_at_the_first_walk_gives_right_answers(
        self, kgnn_engine, monkeypatch
    ):
        tree = kgnn_engine.tree
        groups = kgnn_groups(8, 3, seed=5)
        assert walks_right(tree, groups)  # forks the helper, sends the view
        killed = cores._helper.pid
        original = mbm._counted_walk

        def kill_first(*args):
            if cores._helper is not None and cores._helper.pid == killed:
                os.kill(killed, signal.SIGKILL)
                # Dead before the caller looks again (left unreaped, so the
                # batch reaps it).
                os.waitid(os.P_PID, killed, os.WEXITED | os.WNOWAIT)
            return original(*args)

        # Patched after the fork, so only the caller's walks kill.
        monkeypatch.setattr(mbm, "_counted_walk", kill_first)
        assert walks_right(tree, groups)
        with pytest.raises(ChildProcessError):
            os.waitpid(killed, os.WNOHANG)  # discarded and reaped
        assert cores._helper is None
        monkeypatch.setattr(mbm, "_counted_walk", original)
        assert walks_right(tree, groups)  # a new helper gets the view
        assert cores._helper.pid != killed
        assert cores._helper.view == tree.flat_view().token

    def test_stopped_helper_does_not_stall_a_walk(self, kgnn_engine, monkeypatch):
        tree = kgnn_engine.tree
        groups = kgnn_groups(10, 4, seed=6)
        assert walks_right(tree, groups)
        helper = cores._helper
        original = mbm._counted_walk
        stopped = []

        def stop_first(*args):
            if not stopped:
                os.kill(helper.pid, signal.SIGSTOP)  # the helper may be mid-walk
                stopped.append(True)
            return original(*args)

        monkeypatch.setattr(mbm, "_counted_walk", stop_first)
        try:
            with overdue_after(WAIT_S):
                assert walks_right(tree, groups)
                assert walks_right(tree, kgnn_groups(10, 4, seed=7))
        finally:
            os.kill(helper.pid, signal.SIGCONT)
        assert stopped and cores._helper is helper  # still in service
        monkeypatch.setattr(mbm, "_counted_walk", original)
        assert walks_right(tree, kgnn_groups(10, 4, seed=8))
        assert cores._helper is helper

    def test_stopped_helper_does_not_stall_sending_a_view(self):
        """A new view's arrays fill the request pipe of a stopped helper:
        the caller waits SEND_STALL_S for it to read them, then discards
        it and walks the batch inline."""
        engine = GNNQueryEngine(uniform_pois(6000, seed=38), max_entries=8)
        groups = kgnn_groups(10, 4, seed=13)
        assert walks_right(engine.tree, groups)
        helper = cores._helper
        engine.insert(POI(9000, Point(0.5, 0.5)))
        _, payload = mbm.view_arrays(engine.tree.flat_view())
        assert sum(part.nbytes for part in payload) > 1 << 16
        os.kill(helper.pid, signal.SIGSTOP)
        try:
            with overdue_after(WAIT_S):
                assert walks_right(engine.tree, groups)
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.kill(helper.pid, signal.SIGCONT)
        assert cores._helper is None and exits(helper.pid)
        assert walks_right(engine.tree, groups)  # a new helper gets the view
        assert cores._helper.view == engine.tree.flat_view().token

    def test_long_reply_is_read_whole_within_the_wait(self, monkeypatch):
        """A tail half's rows outgrow the pipe's buffer: the caller reads
        them as they come in, and does not walk that half itself."""
        tree = GNNQueryEngine(uniform_pois(6000, seed=39), max_entries=8).tree
        k, groups = 32, kgnn_groups(600, 1, seed=14)
        assert walks_right(tree, kgnn_groups(4, 2, seed=15))  # forks, sends the view
        answers, counts = one_group_walks(tree, groups, k, SUM)
        original = mbm._counted_walk
        walked = []

        def after_the_helper(*args):
            # The caller's half ends after the helper has started sending.
            walked.append(args[1].shape[1])
            assert replies_waiting(cores._helper)
            return original(*args)

        monkeypatch.setattr(mbm, "_counted_walk", after_the_helper)
        counters = IndexCounters()
        assert mbm.mbm_kgnn_many(tree, groups, k, SUM, counters) == answers
        assert (counters.nodes_visited, counters.candidates_scored) == counts
        assert walked == [300]

    def test_unread_long_reply_does_not_block_sending_a_view(self, monkeypatch):
        """The helper is left writing a reply of more than two pipe buffers,
        whose half the caller walked itself, when the next batch sends it a
        new view of more than one: neither process may wait on the other."""
        engine = GNNQueryEngine(uniform_pois(6000, seed=39), max_entries=8)
        tree = engine.tree
        k, groups = 32, kgnn_groups(600, 1, seed=14)
        assert walks_right(tree, kgnn_groups(4, 2, seed=15))  # forks, sends the view
        helper = cores._helper
        tail_rows = mbm._walk(tree.flat_view(), stacked(groups[300:]), k, SUM, None)
        assert len(pickle.dumps(tail_rows)) > 2 << 16
        answers, counts = one_group_walks(tree, groups, k, SUM)
        original = mbm._counted_walk

        def stop_while_writing(*args):
            # The caller's half: stop the helper once it has started
            # writing its reply, which the pipe cannot hold.
            monkeypatch.setattr(mbm, "_counted_walk", original)
            assert replies_waiting(helper)
            os.kill(helper.pid, signal.SIGSTOP)
            return original(*args)

        monkeypatch.setattr(mbm, "_counted_walk", stop_while_writing)
        try:
            with overdue_after(WAIT_S):
                counters = IndexCounters()
                assert mbm.mbm_kgnn_many(tree, groups, k, SUM, counters) == answers
                assert (counters.nodes_visited, counters.candidates_scored) == counts
                assert helper.buffer  # part of the reply, whose half the caller walked
                os.kill(helper.pid, signal.SIGCONT)
                assert replies_waiting(helper)  # writing the rest, blocked
                engine.insert(POI(9000, Point(0.5, 0.5)))
                assert walks_right(tree, kgnn_groups(6, 3, seed=16))
                assert walks_right(tree, kgnn_groups(6, 3, seed=17))
        finally:
            with contextlib.suppress(ProcessLookupError):
                os.kill(helper.pid, signal.SIGCONT)
        assert cores._helper.view == tree.flat_view().token

    def test_one_group_custom_aggregate_and_flat_index_send_no_request(self, kgnn_engine):
        tree = kgnn_engine.tree
        groups = kgnn_groups(6, 3, seed=9)
        assert walks_right(tree, groups)
        helper = cores._helper
        batch = helper.batch
        mbm.mbm_kgnn(tree, groups[0], 6, SUM)
        mbm.mbm_kgnn_many(tree, groups[:1], 6, SUM)
        opaque_sum = Aggregate("opaque-sum", lambda ds: float(sum(ds)), lambda m: m.sum(axis=1))
        assert walks_right(tree, groups, 6, opaque_sum)
        flat = GNNQueryEngine(kgnn_engine.pois, index="bruteforce")
        assert walks_right(flat.tree, groups)
        kgnn_engine.query_many(6, groups[:1])
        assert cores._helper is helper and helper.batch == batch


@two_cpus
class TestAffinity:
    def test_helper_never_shares_the_callers_cpu(self, keys, monkeypatch, always_split):
        sk, pk = keys
        allowed = os.sched_getaffinity(0)
        for cpu in sorted(allowed):
            monkeypatch.setattr(cores, "_current_cpu", lambda cpu=cpu: cpu)
            nonces = nonces_of(pk, 3, seed=cpu)
            assert cores.obfuscate_many(sk, nonces, 1) == [sk.obfuscate(r, 1) for r in nonces]
            assert os.sched_getaffinity(cores._helper.pid) == allowed - {cpu}
            pairs, modulus = product_of(pk, 1, 4, seed=cpu)
            assert cores.multi_pow(pairs, modulus) == fastexp.multi_pow(pairs, modulus)
            assert os.sched_getaffinity(cores._helper.pid) == allowed - {cpu}

    def test_current_cpu_is_one_this_process_may_use(self, keys):
        sk, pk = keys
        allowed = os.sched_getaffinity(0)
        assert cores._current_cpu() in allowed
        nonces = nonces_of(pk, 3, seed=5)
        assert cores.obfuscate_many(sk, nonces, 1) == [sk.obfuscate(r, 1) for r in nonces]
        helper_cpus = os.sched_getaffinity(cores._helper.pid)
        assert helper_cpus < allowed and len(helper_cpus) == len(allowed) - 1

    def test_current_cpu_opens_no_file(self, monkeypatch):
        def no_files(*args, **kwargs):
            raise AssertionError("opened a file")

        monkeypatch.setattr(os, "open", no_files)
        assert cores._current_cpu() in os.sched_getaffinity(0)

    def test_unreadable_cpu_skips_the_step(self, keys, monkeypatch):
        """Without ``sched_getcpu``, or when it fails (-1), the helper keeps
        the CPUs it had."""
        sk, pk = keys
        cores.obfuscate_many(sk, nonces_of(pk, 2, seed=1), 1)
        before = os.sched_getaffinity(cores._helper.pid)
        for getcpu in (None, lambda: -1):
            monkeypatch.setattr(cores, "_sched_getcpu", getcpu)
            assert cores._current_cpu() == -1
            nonces = nonces_of(pk, 4, seed=2)
            assert cores.obfuscate_many(sk, nonces, 1) == [sk.obfuscate(r, 1) for r in nonces]
            assert os.sched_getaffinity(cores._helper.pid) == before


@two_cpus
def test_stress_against_a_forked_twin(always_split, sanitation, kgnn_engine):
    """200 random owner batches, products, sanitation batches and kGNN
    batches here while a forked child runs 200 of its own."""
    sk, pk = generate_keypair(128, seed=97)
    answers, candidates = sanitation
    deadline = time.monotonic() + WAIT_S

    def run(seed: int) -> bool:
        rng = random.Random(seed)
        for _ in range(200):
            s = rng.choice((1, 2, 3))
            kind = rng.random()
            if kind < 1 / 4:
                nonces = [pk.random_unit(rng) for _ in range(rng.randrange(0, 9))]
                if cores.obfuscate_many(sk, nonces, s) != [sk.obfuscate(r, s) for r in nonces]:
                    return False
            elif kind < 2 / 4:
                pairs, modulus = product_of(pk, s, rng.randrange(0, 9), rng.getrandbits(32))
                if cores.multi_pow(pairs, modulus) != fastexp.multi_pow(pairs, modulus):
                    return False
            elif kind < 3 / 4:
                picks = rng.sample(range(len(candidates)), rng.randrange(0, 6))
                batch = [answers[i] for i in picks], [candidates[i] for i in picks]
                sampler_seed = rng.getrandbits(32)
                expected = reference_lengths(sanitizer_of(seed=sampler_seed), *batch)
                sanitizer = sanitizer_of(seed=sampler_seed)
                outcomes = sanitizer.sanitize(*batch)
                got = [o.safe_lengths for o in outcomes], sanitizer.rng.bit_generator.state
                if got != expected:
                    return False
            else:
                groups = kgnn_groups(rng.randrange(0, 9), rng.choice((1, 3)), rng.getrandbits(32))
                aggregate = rng.choice((SUM, MAX, MIN))
                if not walks_right(kgnn_engine.tree, groups, rng.randrange(1, 9), aggregate):
                    return False
            if time.monotonic() > deadline:
                return False
        return True

    cores.obfuscate_many(sk, nonces_of(pk, 2, seed=15), 1)  # the parent's helper exists
    pid = fork_child(lambda: run(seed=2))
    try:
        assert run(seed=1)
    finally:
        status = wait_child(pid)
    assert status == 0
