"""Tests for the second-core helper of the owner's nonce factors.

Every batch must return exactly the factors (and ciphertexts) that one
``obfuscate`` (or ``encrypt``) call per element returns, whichever
process computed them, and every failure of the helper must leave the
next batch correct.  Tests that need the helper itself skip on a
one-CPU host and with ``REPRO_FASTEXP=0``, where every batch runs inline.
"""

import os
import random
import signal
import threading
import time

import pytest

from repro.crypto import cores, fastexp
from repro.crypto.homomorphic import encrypt_indicator
from repro.crypto.noncepool import NoncePool
from repro.crypto.paillier import PaillierPrivateKey, generate_keypair
from repro.obs.profile import profile_keypair

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
def test_stress_against_a_forked_twin():
    """200 random batches here while a forked child runs 200 of its own."""
    sk, pk = generate_keypair(128, seed=97)
    deadline = time.monotonic() + WAIT_S

    def run(seed: int) -> bool:
        rng = random.Random(seed)
        for _ in range(200):
            s = rng.choice((1, 2, 3))
            nonces = [pk.random_unit(rng) for _ in range(rng.randrange(0, 9))]
            if cores.obfuscate_many(sk, nonces, s) != [sk.obfuscate(r, s) for r in nonces]:
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
