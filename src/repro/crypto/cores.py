"""The key holder's nonce factors, and the LSP's dot products, answer
sanitation and kGNN walk, on two cores.

Four kinds of work run on a second core.  An owner nonce factor
(:meth:`~repro.crypto.paillier.PaillierPrivateKey.obfuscate`) is the
coordinator's dominant cost, and the factors of one batch -- an
indicator's, or a key-owned pool refill's -- do not depend on each
other: :func:`obfuscate_many` makes each factor one item of a batch.  The
LSP's private selection is one Eqn 4 dot product per answer row
(:func:`~repro.crypto.homomorphic.hom_dot`), and a selection usually has
one product worth a second core, so :func:`multi_pow` cuts that product's
terms into two halves of about equal cost (a two-item batch) and joins
the halves with one modular multiplication.  The LSP's answer sanitation
runs one Monte-Carlo test per candidate query, each on samples of its
own (:mod:`repro.core.sanitize`), and :func:`sanitize_many` makes each
test one item of a batch.  The LSP answers a request's candidate queries
in one batched kGNN walk (:func:`repro.gnn.mbm.mbm_kgnn_many`), in which
each group's rounds depend only on that group, and :func:`kgnn_halves`
makes the head and tail halves of the batch the two items of a batch:
per-group items would pay the rounds' fixed numpy calls once per group.

One helper process works through each batch from the tail and sends each
item as soon as it has it, while the calling process works from the
head.  Before each of its items the caller claims that index in 16 bytes
of memory it shares with the helper, and the helper stops at the first
index the caller has claimed, so the two meet wherever their speeds put
them and neither keeps working once the batch is done.  When only the
item the helper is working on is left, the caller waits for it about as
long as one of its own items took, then computes it itself: the caller
never waits longer than that, so when the host stalls the second core a
batch costs about its inline time plus one item.  Neither process is
left writing into a full pipe while the other does the same: the caller
reads the helper's replies while it sends a request larger than the
pipe's buffer (an index view's arrays), and a helper that reads none of
it for :data:`SEND_STALL_S` is lost; the helper sends no item the caller
has taken over, and the caller reads a long reply (a half walk's rows)
as it comes in.  Each factor is the
value ``obfuscate`` returns for its nonce, each product the value
``fastexp.multi_pow`` returns for the whole term list, each test's
safe lengths those of the same test on the same samples, and each half
walk the rows and work counts of the same groups over the same arrays,
whichever process computed them, so ciphertexts, answers, pool contents
and every work counter are the same as with one core; only wall time
moves.

A product is split only when the modelled saving, the whole product's
cost less its costlier half's at the modulus width, estimated from the
exponents' bit lengths, exceeds a round trip to the helper
(:data:`SPLIT_FLOOR_WORK64`).  Before each request the
helper is kept off the CPU the caller runs on (:func:`_keep_apart`);
otherwise the scheduler may wake it there and leave both on one CPU.

The helper is forked with ``os.fork`` and two ``os.pipe`` on the first
batch that can use it, and lives until the interpreter exits.  A batch
runs inline, and a product in one chain, unless all of these hold:

- the fast paths are on (``REPRO_FASTEXP=0`` is the builtin-``pow`` value
  oracle and stays in one process);
- the process may run on at least two CPUs;
- the batch has at least two items;
- the process is not a ``multiprocessing`` child (a pool's parent
  already spreads its work over the cores);
- only one Python thread is alive, so a process running Python in
  another thread is never forked (the helper never calls the native
  code of threads Python does not see, such as OpenBLAS's workers: the
  sanitation tests use numpy's element-wise functions and its PCG64
  sampler, and the kGNN walk its element-wise functions, sorts, searches
  and reductions, all of which run in the calling thread);
- ``os.fork`` exists.

The helper is stamped with the pid that forked it.  Any process forked
later drops its inherited pipe ends (``os.register_at_fork``) and never
writes to them.  Every request, reply and claim carries the batch's
sequence number, so an item that arrives after its batch has ended is
dropped, never read as another batch's.  A failure during an exchange
-- end of file, a dead helper, or an exception in the caller's own
items -- discards the helper; after a helper failure the rest of the
batch is computed inline.

Every request is tagged with its kind after the sequence number:

- ``(batch, "owner", n, p, q, s, nonces)``: the helper rebuilds the key
  from its integers, keeping up to four keys, and item ``i`` is
  ``obfuscate(nonces[i], s)``;
- ``(batch, "product", modulus, pairs)``: item 1 of a two-item batch,
  the product of the helper's half of the terms;
- ``(batch, "sanitize", bounds, aggregate, plan, words, items)``: the
  space's bounds, the index of a built-in aggregate, the test plan's
  fields, the LSP sampler's two PCG64 state integers at entry, and per
  test the coordinates of its candidate and of its answer POIs
  (:func:`repro.core.sanitize.helper_tests` reads it); item ``i`` is the
  test of slot ``i``.  The helper keeps its last sanitizer, and with it
  the sanitizer's ``N_H``-long buffers, while the requests' space,
  aggregate and plan stay the same;
- ``(batch, "kgnn", token, layout, aggregate, k, groups)``: item 1 of a
  two-item batch, the walk of the tail half of a same-size batch of kGNN
  groups.  ``token`` names an index view
  (:attr:`repro.index.base.FlatView.token`), ``aggregate`` is the index
  of a built-in aggregate and ``groups`` the groups' coordinates.
  ``layout`` is None when this helper was sent that view last, and
  otherwise the view's ``roots`` and its walked arrays' shapes and
  dtypes (:func:`repro.gnn.mbm.view_arrays`); the arrays' raw bytes then
  follow the request, written straight from their memory, about 1 MiB
  for the 62,556-POI R-tree.  The helper keeps the last view it was
  sent, rebuilt read-only, and a request for a view it does not hold is
  a helper failure, never a walk over stale arrays.

Replies carry ``(batch, index, value)``: a factor, a product, a test's
safe lengths, or a half walk's ``(rows, nodes_visited,
candidates_scored)``, each row ``(group, leaf, position, score)``, which
the caller resolves to POIs through its own view.  A product, sanitize
or kGNN request holds no key material, the factorisation stays in the
key holder's process tree, and each side only unpickles integers,
floats, strings and tuples or lists of them, written by this process.
DESIGN.md ("Crypto hot path", item 4) gives the reasons for a raw fork
and the measured costs.
"""

from __future__ import annotations

import atexit
import ctypes
import gc
import mmap
import os
import pickle
import select
import signal
import struct
import sys
import threading
from functools import partial
from time import perf_counter
from typing import TYPE_CHECKING, Callable, NoReturn, Sequence, TypeVar

from repro.crypto import fastexp

if TYPE_CHECKING:
    from repro.core.sanitize import AnswerSanitizer
    from repro.crypto.paillier import PaillierPrivateKey
    from repro.gnn.mbm import WalkedArrays

_T = TypeVar("_T")

#: Length prefix of every pipe message.
_HEADER = struct.Struct("<Q")

#: The caller's claim, in memory it shares with the helper: the current
#: batch's sequence number and the highest index the caller has taken.
_CLAIM = struct.Struct("=qq")

#: Keys the helper keeps rebuilt; a process rarely holds more than one.
_KEY_CACHE = 4

#: The kinds of request (module docstring).
_OWNER, _PRODUCT, _SANITIZE, _KGNN = "owner", "product", "sanitize", "kgnn"

#: Least modelled saving for which :func:`multi_pow` splits a product, in
#: multiplications weighted by ``(modulus bits / 64) ** 2`` (``mul_work64``,
#: as in :mod:`repro.obs.profile`): about one round trip to the helper.  On
#: a 2-vCPU VM an empty request's round trip took 0.054 ms (p90 0.12 ms,
#: DESIGN.md "Crypto hot path", item 4), splitting a product whose halves
#: cost nothing added 0.057 ms in a small process (p90 0.064 ms, 2,000
#: pairs against inline),
#: and ``fastexp.multi_pow`` took 11.5-13.3 ns per unit at 1024-2048-bit
#: moduli; 0.12 ms is about 10,000 units.  By the bit-length model of
#: ``fastexp.estimated_cut``, the 25-term selection of a 1024-bit
#: PPGNN-NAS query saves about 1.3 million, a 5-term level-1 product at
#: 512 bits about 52,000, PPGNN-OPT's nested row of five exponents equal
#: to 1 at 512 bits 1,152, and no level-1 product at 128 bits clears the
#: floor (at most about 6,600).
SPLIT_FLOOR_WORK64 = 10_000

#: Seconds a helper may read none of a request larger than the pipe's
#: buffer before it counts as stalled (:meth:`_Helper.start`).  Sending
#: 1 MiB (an index view's arrays) on a 2-vCPU VM, 200 times each, a freshly
#: forked helper first read 0.16 ms after the pipe filled in the median and
#: 1.6 ms at most, and a running one paused between reads for at most
#: 1.1 ms.
SEND_STALL_S = 0.01


class _HelperLost(Exception):
    """The helper died, closed its pipe, or answered out of turn."""


def _frame(obj: object) -> bytes:
    """``obj`` pickled, after its length."""
    data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(len(data)) + data


def _write_message(fd: int, obj: object) -> None:
    view = memoryview(_frame(obj))
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


class _Kept:
    """What the helper keeps across requests: the keys it has rebuilt, its
    last sanitizer, and the token and arrays of the last index view it
    was sent."""

    __slots__ = ("keys", "sanitizer", "view")

    def __init__(self) -> None:
        self.keys: dict[int, PaillierPrivateKey] = {}
        self.sanitizer: AnswerSanitizer | None = None
        self.view: tuple[int, WalkedArrays] | None = None


def _helper_items(
    kind: str, body: list, kept: _Kept, read: Callable[[int], bytes]
) -> list[tuple[int, Callable[[], object]]]:
    """The items of a request the helper may compute, tail first, each
    with the function that computes it; ``read(size)`` reads the raw bytes
    that follow the request."""
    if kind == _PRODUCT:
        modulus, pairs = body
        return [(1, partial(fastexp.multi_pow, pairs, modulus))]
    if kind == _SANITIZE:
        from repro.core.sanitize import helper_tests

        kept.sanitizer, tests = helper_tests(body, kept.sanitizer)
        return tests
    if kind == _KGNN:
        from repro.gnn.mbm import WalkedArrays, helper_walk

        token, layout, *walk = body
        if layout is not None:
            kept.view = token, WalkedArrays(layout, read)
        elif kept.view is None or kept.view[0] != token:
            # Never walk stale arrays: the helper exits, and the caller
            # walks the batch itself.
            raise _HelperLost(f"the helper holds no copy of view {token}")
        return [(1, helper_walk(kept.view[1], walk))]
    from repro.crypto.paillier import PaillierPrivateKey, PaillierPublicKey

    n, p, q, s, nonces = body
    keys = kept.keys
    key = keys.get(n)
    if key is None:
        if len(keys) >= _KEY_CACHE:
            del keys[next(iter(keys))]
        key = keys[n] = PaillierPrivateKey(PaillierPublicKey(n), p, q)
    return [
        (index, partial(key.obfuscate, nonces[index], s))
        for index in range(len(nonces) - 1, -1, -1)
    ]


def _serve(requests: int, replies: int, claim: mmap.mmap) -> NoReturn:
    """The helper's loop: each request's items, from its tail, until end of file.

    The helper stops a batch at the first index the caller has claimed,
    or as soon as the caller has moved on to another batch, and sends no
    item the caller claimed while the helper computed it: a reply nobody
    reads would keep the helper writing into a full pipe.
    """
    status = 1
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        gc.disable()  # a collection would dirty every page shared with the parent
        _isolate((requests, replies))
        kept = _Kept()
        while True:
            try:
                batch, kind, *body = _read_message(requests)
            except EOFError:
                status = 0
                break
            read = partial(_read_exact, requests)
            for index, compute in _helper_items(kind, body, kept, read):
                claimed_batch, claimed = _CLAIM.unpack_from(claim)
                if claimed_batch != batch or claimed >= index:
                    break
                value = compute()
                claimed_batch, claimed = _CLAIM.unpack_from(claim)
                if claimed_batch != batch or claimed >= index:
                    break
                _write_message(replies, (batch, index, value))
    finally:
        os._exit(status)


def _libc_sched_getcpu() -> Callable[[], int] | None:
    """The C library's ``sched_getcpu``, or None where it has none."""
    try:
        function = ctypes.CDLL(None).sched_getcpu
    except (AttributeError, OSError, TypeError):
        return None
    function.argtypes = ()
    function.restype = ctypes.c_int
    return function


_sched_getcpu = _libc_sched_getcpu()


def _current_cpu() -> int:
    """The CPU this thread runs on (``sched_getcpu``), or -1 where that
    cannot be told."""
    return -1 if _sched_getcpu is None else _sched_getcpu()


def _keep_apart(pid: int) -> None:
    """Let the helper ``pid`` run on any CPU this process may use except
    the one it runs on now.

    Otherwise the scheduler may wake the helper on the caller's CPU and
    leave both there.  The step is skipped where the caller's CPU cannot
    be told or no other CPU is allowed.
    """
    cpu = _current_cpu()
    if cpu < 0:
        return
    try:
        others = os.sched_getaffinity(0) - {cpu}
        if others:
            os.sched_setaffinity(pid, others)
    except (AttributeError, OSError, ValueError):
        pass


class _Helper:
    """One forked helper: its pid, the pid that forked it, that process's
    ends of the request and reply pipes, the claim it shares with the
    helper, the current batch's sequence number, the reply bytes read
    but not yet parsed, and the token of the last index view sent."""

    __slots__ = ("pid", "owner", "requests", "replies", "claim", "batch", "buffer", "view")

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
        os.set_blocking(request_w, False)
        os.set_blocking(reply_r, False)
        self.pid = pid
        self.owner = os.getpid()
        self.requests = request_w
        self.replies = reply_r
        self.claim = claim
        self.batch = 0
        self.buffer = bytearray()
        self.view: int | None = None

    def start(self, request: tuple, payload: Sequence[memoryview] = ()) -> None:
        """Hand the helper a new batch, which it works through from the tail,
        and then the raw bytes of ``payload``.

        A request larger than the pipe's buffer (an index view's arrays, a
        long nonce list) goes out as the helper reads it, while the caller
        reads the helper's replies, so neither is left writing into a full
        pipe; a helper that reads none of it for :data:`SEND_STALL_S` is
        lost.
        """
        self.batch += 1
        self.take(-1)
        _keep_apart(self.pid)
        for part in (memoryview(_frame((self.batch, *request))), *payload):
            while part:
                try:
                    part = part[os.write(self.requests, part):]
                except BlockingIOError:
                    if not self._wait(SEND_STALL_S, writing=True):
                        raise _HelperLost("the helper read none of its request") from None
                    self._receive()
                except OSError as exc:
                    raise _HelperLost(f"request not delivered: {exc}") from None

    def take(self, index: int) -> None:
        """Claim ``index`` and every index below it for the caller.

        The helper reads the claim before each item and before it sends
        one.  It may read it just before a change, and then computes, or
        sends, an item the caller also computes: the two are equal, and
        the caller drops the reply.
        """
        _CLAIM.pack_into(self.claim, 0, self.batch, index)

    def collect(self, results: list, tail: int, timeout: float = 0.0) -> int:
        """Store the current batch's items that have arrived in ``results``
        and return the lowest index the helper has sent (``tail`` if none).

        Waits up to ``timeout`` seconds for an item, reading a long reply as
        it comes in, and never blocks otherwise.  Replies to earlier
        batches are dropped.
        """
        deadline = perf_counter() + timeout
        while True:
            self._receive()
            lowest = self._store(results, tail)
            if lowest < tail or not self._wait(deadline - perf_counter()):
                return lowest

    def _receive(self) -> None:
        """Read every reply byte there is into the buffer."""
        while True:
            try:
                chunk = os.read(self.replies, 1 << 16)
            except BlockingIOError:
                return
            except OSError as exc:
                raise _HelperLost(f"no reply: {exc}") from None
            if not chunk:
                raise _HelperLost("no reply: the helper closed its pipe")
            self.buffer += chunk

    def _wait(self, timeout: float, writing: bool = False) -> bool:
        """Whether, within ``timeout`` seconds, a reply byte arrives, or the
        helper closes its pipe, or, ``writing``, the request pipe has room."""
        if timeout <= 0:
            return False
        poller = select.poll()
        poller.register(self.replies, select.POLLIN)
        if writing:
            poller.register(self.requests, select.POLLOUT)
        return bool(poller.poll(timeout * 1000))

    def _store(self, results: list, tail: int) -> int:
        """Store the current batch's whole replies in ``results``; the
        lowest index among them, or ``tail``."""
        for reply in self._frames():
            if not (isinstance(reply, tuple) and len(reply) == 3):
                raise _HelperLost("reply does not match the request")
            batch, index, value = reply
            if batch != self.batch:
                continue
            if not 0 <= index < len(results):
                raise _HelperLost("reply does not match the request")
            results[index] = value
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
    """Whether a batch of ``count`` items may use the helper (module doc)."""
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


def _exchange(
    helper: _Helper,
    request: tuple,
    count: int,
    compute: Callable[[int], _T],
    payload: Sequence[memoryview] = (),
) -> list[_T]:
    """``[compute(i) for i in range(count)]``, the items of one batch: the
    caller computes them from the head while the helper, sent ``request``,
    computes them from the tail, until every item is in hand.

    When only the item the helper is working on is left, the caller waits
    for it about as long as one of its own items took, then computes it
    itself.  After a helper failure the caller computes every item still
    missing.
    """
    results: list[_T | None] = [None] * count
    head, tail = 0, count  # caller has [0, head), helper has sent [tail, count)
    try:
        helper.start(request, payload)
        started = perf_counter()
        while head < tail:
            tail = helper.collect(results, tail)
            if head == tail - 1 and head > 0:
                # Only the helper's item in hand is left: wait for it
                # about as long as one of the caller's own took.
                tail = helper.collect(results, tail, (perf_counter() - started) / head)
            if head < tail:
                helper.take(head)
                results[head] = compute(head)
                head += 1
    except _HelperLost:
        _discard()
    except BaseException:
        _discard()  # the next batch starts with a fresh helper
        raise
    return [compute(index) if value is None else value for index, value in enumerate(results)]


def obfuscate_many(
    key: PaillierPrivateKey, nonces: Sequence[int], s: int = 1
) -> list[int]:
    """``[key.obfuscate(r, s) for r in nonces]``, on two cores when it can.

    ``s`` must already have passed
    :func:`~repro.crypto.paillier.check_level`.  Each factor is one item
    of the batch (:func:`_exchange`); see the module docstring for when
    the batch runs inline instead.
    """
    helper = _helper_for(len(nonces))
    if helper is None:
        return [key.obfuscate(r, s) for r in nonces]
    return _exchange(
        helper,
        (_OWNER, key.public_key.n, key.p, key.q, s, list(nonces)),
        len(nonces),
        lambda index: key.obfuscate(nonces[index], s),
    )


def multi_pow(
    pairs: Sequence[tuple[int, int]],
    modulus: int,
    ledger: fastexp.MulLedger | None = None,
) -> int:
    """``fastexp.multi_pow(pairs, modulus)``, its terms split over two
    cores when that saves more than a round trip to the helper.

    The terms are cut where :func:`~repro.crypto.fastexp.estimated_cut`
    says, from the exponents' bit lengths.  The request goes out first,
    and then the caller evaluates the costlier side and the helper the
    other, as a two-item batch (:func:`_exchange`), since the helper also
    pays a round trip; each side decomposes only its own exponents, and
    one modular multiplication joins the two.  The product runs inline,
    in one chain, when the whole product's modelled cost less its
    costlier side's, at the modulus width, is at most
    :data:`SPLIT_FLOOR_WORK64`, or when the helper may not run (module
    docstring).  ``ledger`` receives the whole product's exact
    :func:`~repro.crypto.fastexp.multi_pow_cost` either way: which
    process did the work depends on the host, and no counter records it.
    """
    exponents = [exponent for _, exponent in pairs]
    if ledger is not None:
        ledger.add(fastexp.multi_pow_cost(exponents))
    cut, whole, head, tail = fastexp.estimated_cut(exponents)
    saving = (whole - max(head, tail)) * (modulus.bit_length() / 64) ** 2
    helper = _helper_for(2) if saving > SPLIT_FLOOR_WORK64 else None
    if helper is None:
        return fastexp.multi_pow(pairs, modulus)
    sides = [pairs[:cut], pairs[cut:]]
    if tail > head:
        sides.reverse()
    mine, theirs = _exchange(
        helper,
        (_PRODUCT, modulus, list(sides[1])),
        2,
        lambda index: fastexp.multi_pow(sides[index], modulus),
    )
    return mine * theirs % modulus


def sanitize_many(
    request: Callable[[], tuple], count: int, test: Callable[[int], tuple[int, ...]]
) -> list[tuple[int, ...]]:
    """``[test(slot) for slot in range(count)]``, the sanitation tests of
    one LSP request, on two cores when it can.

    Each test is one item of the batch (:func:`_exchange`), and the helper
    rebuilds its tests from ``request()``, the body of a ``"sanitize"``
    request (module docstring), which is built only when the helper runs.
    See the module docstring for when the batch runs inline instead.
    """
    helper = _helper_for(count)
    if helper is None:
        return [test(slot) for slot in range(count)]
    return _exchange(helper, (_SANITIZE, *request()), count, test)


def kgnn_halves(
    token: int,
    arrays: Callable[[], tuple[tuple, Sequence[memoryview]]],
    request: Callable[[], tuple],
    walk: Callable[[int], _T],
) -> list[_T] | None:
    """``[walk(0), walk(1)]``, the head and tail halves of one batch of
    kGNN groups, the tail half on the helper; None when the helper may not
    run, and the caller then walks the batch whole.

    The halves are the two items of a batch (:func:`_exchange`), and the
    helper walks its half from ``request()``, the built-in aggregate's
    index, ``k`` and the tail groups of a ``"kgnn"`` request (module
    docstring).  The helper keeps the arrays of the last index view it was
    sent, so ``arrays()``, the layout and bytes of view ``token``'s arrays,
    is built and sent only when that view is not the last one this helper
    was sent.
    """
    helper = _helper_for(2)
    if helper is None:
        return None
    layout, payload = (None, ()) if helper.view == token else arrays()
    helper.view = token  # a helper lost before it reads them is discarded
    return _exchange(helper, (_KGNN, token, layout, *request()), 2, walk, payload)


atexit.register(shutdown)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget)
