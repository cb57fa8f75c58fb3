"""The key holder's nonce factors on two cores.

An owner nonce factor (:meth:`~repro.crypto.paillier.PaillierPrivateKey.
obfuscate`) is the coordinator's dominant cost, and the factors of one
batch -- an indicator's, or a key-owned pool refill's -- do not depend on
each other.  :func:`obfuscate_many` hands the whole batch to one helper
process, which works through it from the tail and sends each factor as
soon as it has it, while the calling process works from the head.
Before each of its factors the caller claims that index in 16 bytes
of memory it shares with the helper, and the helper stops at the first
index the caller has claimed, so the two meet wherever their speeds put
them and neither keeps working once the batch is done.  The caller never
waits on the helper for more than about one factor's time: when the
host stalls the second core, the caller computes the rest, and the batch
costs about what it costs inline.  Each factor is the value
``obfuscate`` returns for its nonce, whichever process computed it, so
ciphertexts, pool contents and every work counter are the same as with
one core; only wall time moves.

The helper is forked with ``os.fork`` and two ``os.pipe`` on the first
batch that can use it, and lives until the interpreter exits.  A batch
runs inline unless all of these hold:

- the fast paths are on (``REPRO_FASTEXP=0`` is the builtin-``pow`` value
  oracle and stays in one process);
- the process may run on at least two CPUs;
- the batch has at least two factors;
- the process is not a ``multiprocessing`` child (a pool's parent
  already spreads its work over the cores);
- only one Python thread is alive, so a process running Python in
  another thread is never forked (the helper never calls the native
  code of threads Python does not see, such as OpenBLAS's workers);
- ``os.fork`` exists.

The helper is stamped with the pid that forked it.  Any process forked
later drops its inherited pipe ends (``os.register_at_fork``) and never
writes to them.  Every request, reply and claim carries the batch's
sequence number, so a factor that arrives after its batch has ended is
dropped, never read as another batch's.  A failure during an exchange
-- end of file, a dead helper, or an exception in the caller's own
factors -- discards the helper; after a helper failure the rest of the
batch is computed inline.  Requests carry ``(batch, n, p, q, s, nonces)`` and
replies ``(batch, index, factor)``: the helper rebuilds the key from the
integers and each side only unpickles integers written by this process.
DESIGN.md ("Crypto hot path", item 4) gives the reasons for a raw fork
and the measured costs.
"""

from __future__ import annotations

import atexit
import gc
import mmap
import os
import pickle
import select
import signal
import struct
import sys
import threading
from time import perf_counter
from typing import TYPE_CHECKING, NoReturn, Sequence

from repro.crypto import fastexp

if TYPE_CHECKING:
    from repro.crypto.paillier import PaillierPrivateKey

#: Length prefix of every pipe message.
_HEADER = struct.Struct("<Q")

#: The caller's claim, in memory it shares with the helper: the current
#: batch's sequence number and the highest index the caller has taken.
_CLAIM = struct.Struct("=qq")

#: Keys the helper keeps rebuilt; a process rarely holds more than one.
_KEY_CACHE = 4


class _HelperLost(Exception):
    """The helper died, closed its pipe, or answered out of turn."""


def _write_message(fd: int, obj: object) -> None:
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    view = memoryview(_HEADER.pack(len(data)) + data)
    while view:
        view = view[os.write(fd, view):]


def _read_exact(fd: int, size: int) -> bytes:
    chunks = []
    while size:
        chunk = os.read(fd, size)
        if not chunk:
            raise EOFError("pipe closed mid-message")
        chunks.append(chunk)
        size -= len(chunk)
    return b"".join(chunks)


def _read_message(fd: int) -> object:
    """The next message on ``fd``; :class:`EOFError` once the writer is gone."""
    (size,) = _HEADER.unpack(_read_exact(fd, _HEADER.size))
    return pickle.loads(_read_exact(fd, size))


def _isolate(keep: tuple[int, int]) -> None:
    """Point stdio at the null device and close every other inherited fd.

    A forked copy of a pipe's write end would keep that pipe's reader
    from ever seeing end of file, the parent's stdout included.
    """
    null = os.open(os.devnull, os.O_RDWR)
    for fd in (0, 1, 2):
        os.dup2(null, fd)
    low = 3
    for fd in sorted(keep):
        os.closerange(low, fd)
        low = fd + 1
    os.closerange(low, os.sysconf("SC_OPEN_MAX"))


def _readable(fd: int, timeout: float) -> bool:
    """Whether ``fd`` has something to read, or is at end of file, within
    ``timeout`` seconds."""
    poller = select.poll()
    poller.register(fd, select.POLLIN)
    return bool(poller.poll(timeout * 1000))


def _serve(requests: int, replies: int, claim: mmap.mmap) -> NoReturn:
    """The helper's loop: each request's factors, from its tail, until end of file.

    The helper stops a batch at the first index the caller has claimed,
    or as soon as the caller has moved on to another batch.
    """
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        gc.disable()  # a collection would dirty every page shared with the parent
        _isolate((requests, replies))
        from repro.crypto.paillier import PaillierPrivateKey, PaillierPublicKey

        keys: dict[int, PaillierPrivateKey] = {}
        while True:
            try:
                request = _read_message(requests)
            except EOFError:
                status = 0
                break
            batch, n, p, q, s, nonces = request
            key = keys.get(n)
            if key is None:
                if len(keys) >= _KEY_CACHE:
                    del keys[next(iter(keys))]
                key = keys[n] = PaillierPrivateKey(PaillierPublicKey(n), p, q)
            for index in range(len(nonces) - 1, -1, -1):
                claimed_batch, claimed = _CLAIM.unpack_from(claim)
                if claimed_batch != batch or claimed >= index:
                    break
                _write_message(replies, (batch, index, key.obfuscate(nonces[index], s)))
    finally:
        os._exit(status)


class _Helper:
    """One forked helper: its pid, the pid that forked it, that process's
    ends of the request and reply pipes, the claim it shares with the
    helper, the current batch's sequence number and the reply bytes read
    but not yet parsed."""

    __slots__ = ("pid", "owner", "requests", "replies", "claim", "batch", "buffer")

    def __init__(self) -> None:
        claim = mmap.mmap(-1, _CLAIM.size)  # anonymous and shared across the fork
        _CLAIM.pack_into(claim, 0, 0, -1)
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            for fd in (request_r, request_w, reply_r, reply_w):
                os.close(fd)
            claim.close()
            raise
        if pid == 0:
            _serve(request_r, reply_w, claim)
        os.close(request_r)
        os.close(reply_w)
        os.set_blocking(reply_r, False)
        self.pid = pid
        self.owner = os.getpid()
        self.requests = request_w
        self.replies = reply_r
        self.claim = claim
        self.batch = 0
        self.buffer = bytearray()

    def start(self, key: PaillierPrivateKey, nonces: list[int], s: int) -> None:
        """Hand the helper a new batch, which it works through from the tail."""
        self.batch += 1
        self.take(-1)
        try:
            _write_message(
                self.requests, (self.batch, key.public_key.n, key.p, key.q, s, nonces)
            )
        except OSError as exc:
            raise _HelperLost(f"request not delivered: {exc}") from None

    def take(self, index: int) -> None:
        """Claim ``index`` and every index below it for the caller.

        The helper reads the claim before each factor.  It may read it
        just before a change, and then computes a factor the caller also
        computes: the two are equal, and the caller drops the reply.
        """
        _CLAIM.pack_into(self.claim, 0, self.batch, index)

    def collect(self, factors: list[int | None], tail: int, timeout: float = 0.0) -> int:
        """Store the current batch's factors that have arrived in ``factors``
        and return the lowest index the helper has sent (``tail`` if none).

        Waits up to ``timeout`` seconds for a reply and never blocks
        otherwise.  Replies to earlier batches are dropped.
        """
        if timeout > 0 and not self._whole_reply():
            _readable(self.replies, timeout)
        while True:
            try:
                chunk = os.read(self.replies, 1 << 16)
            except BlockingIOError:
                break
            except OSError as exc:
                raise _HelperLost(f"no reply: {exc}") from None
            if not chunk:
                raise _HelperLost("no reply: the helper closed its pipe")
            self.buffer += chunk
        for reply in self._frames():
            if not (isinstance(reply, tuple) and len(reply) == 3):
                raise _HelperLost("reply does not match the request")
            batch, index, factor = reply
            if batch != self.batch:
                continue
            if not 0 <= index < len(factors):
                raise _HelperLost("reply does not match the request")
            factors[index] = factor
            tail = min(tail, index)
        return tail

    def _whole_reply(self) -> bool:
        """Whether a whole reply waits in the buffer."""
        if len(self.buffer) < _HEADER.size:
            return False
        (size,) = _HEADER.unpack_from(self.buffer)
        return len(self.buffer) >= _HEADER.size + size

    def _frames(self) -> list[object]:
        """Every whole reply in the buffer, removed from it."""
        replies = []
        while self._whole_reply():
            (size,) = _HEADER.unpack_from(self.buffer)
            end = _HEADER.size + size
            replies.append(pickle.loads(self.buffer[_HEADER.size:end]))
            del self.buffer[:end]
        return replies

    def close_ends(self) -> None:
        """Close this process's pipe ends and its view of the claim."""
        for fd in (self.requests, self.replies):
            try:
                os.close(fd)
            except OSError:
                pass
        self.claim.close()

    def stop(self) -> None:
        """Close the pipes and reap the helper, killing it if it still runs.

        Never waits on end of file: another process may still hold a copy
        of the request pipe.  A pid that this process can no longer wait
        for was reaped elsewhere and may belong to someone else now, so it
        is left alone.
        """
        self.close_ends()
        try:
            done, _ = os.waitpid(self.pid, os.WNOHANG)
            if done == 0:
                os.kill(self.pid, signal.SIGKILL)
                os.waitpid(self.pid, 0)
        except ChildProcessError:
            pass


_helper: _Helper | None = None
_fork_failed = False


def _cpu_count() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        return len(affinity(0))
    return os.cpu_count() or 1


def _may_use_helper(count: int) -> bool:
    """Whether a batch of ``count`` factors may use the helper (module doc)."""
    if count < 2 or not fastexp.enabled() or not hasattr(os, "fork"):
        return False
    if threading.active_count() != 1 or _cpu_count() < 2:
        return False
    mp = sys.modules.get("multiprocessing")
    return mp is None or mp.parent_process() is None


def _helper_for(count: int) -> _Helper | None:
    """This process's helper, forked on first use, or None to run inline."""
    global _helper, _fork_failed
    if _fork_failed or not _may_use_helper(count):
        return None
    helper = _helper
    if helper is not None and helper.owner != os.getpid():
        _forget()
        helper = None
    if helper is None:
        try:
            helper = _helper = _Helper()
        except OSError:
            _fork_failed = True
            return None
    return helper


def _discard() -> None:
    global _helper
    helper, _helper = _helper, None
    if helper is not None:
        helper.stop()


def _forget() -> None:
    """In a forked child: drop the inherited pipe ends, never use them."""
    global _helper
    helper, _helper = _helper, None
    if helper is not None:
        helper.close_ends()


def shutdown() -> None:
    """Stop this process's helper, if it has one (also run at exit).

    The next batch that can use a helper forks a new one.
    """
    if _helper is not None and _helper.owner == os.getpid():
        _discard()
    else:
        _forget()


def obfuscate_many(
    key: PaillierPrivateKey, nonces: Sequence[int], s: int = 1
) -> list[int]:
    """``[key.obfuscate(r, s) for r in nonces]``, on two cores when it can.

    ``s`` must already have passed
    :func:`~repro.crypto.paillier.check_level`.  The caller computes
    factors from the head while the helper computes them from the tail,
    until every factor is in hand.  When only the factor the helper is
    working on is left, and the helper has sent one of this batch's
    factors already, the caller waits for it about as long as one of its
    own factors took, then computes it itself.  See the module docstring
    for when the batch runs inline instead.
    """
    helper = _helper_for(len(nonces))
    factors: list[int | None] = [None] * len(nonces)
    if helper is not None:
        head, tail = 0, len(nonces)  # caller has [0, head), helper has [tail, len)
        try:
            helper.start(key, list(nonces), s)
            started = perf_counter()
            while head < tail:
                tail = helper.collect(factors, tail)
                if head == tail - 1 and head > 0 and tail < len(nonces):
                    # Only the helper's factor in hand is left: wait for it
                    # about as long as one of the caller's own took.
                    tail = helper.collect(factors, tail, (perf_counter() - started) / head)
                if head < tail:
                    helper.take(head)
                    factors[head] = key.obfuscate(nonces[head], s)
                    head += 1
        except _HelperLost:
            _discard()
        except BaseException:
            _discard()  # the next batch starts with a fresh helper
            raise
    return [
        key.obfuscate(r, s) if factor is None else factor
        for r, factor in zip(nonces, factors)
    ]


atexit.register(shutdown)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)
