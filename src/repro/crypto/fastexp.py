"""Fast modular-exponentiation kernels with exact multiplication ledgers.

Pure-Python Paillier spends essentially all of its time in three shapes of
modular exponentiation, and each shape admits a classical speedup:

- **Fixed exponent, varying base** — the nonce exponentiation
  ``r^{N^s} mod N^{s+1}``: the exponent is a per-(key, s) constant, so its
  sliding-window *program* (:class:`WindowPlan`) is decomposed once and
  reused for every nonce.  Per call only the small odd-power table of the
  base is built; the squaring chain and window digits are fixed.
- **Many bases at once** — the homomorphic dot product
  ``prod c_i^{x_i} mod N^{s+1}``: :func:`multi_pow` interleaves the
  per-term windows over one shared squaring chain (Straus/Shamir), paying
  ``max_i bits(x_i)`` squarings total instead of per term;
  :func:`estimated_cut` finds where to cut one product in two, from the
  exponents' bit lengths, which :mod:`repro.crypto.cores` evaluates on
  two cores.
- **Known factorization** — the key holder's own nonce factor
  ``r^{N^s}``: :meth:`~repro.crypto.paillier.PaillierPrivateKey.obfuscate`
  builds it per prime in two short stages (a builtin ``pow`` modulo
  ``p``, then the Teichmüller lift modulo ``p^{s+1}``: one ``(p - 1)``
  builtin ``pow`` and a binomial series of ``s + 1`` terms) and joins the
  halves by Garner; its ``obfuscate_stages`` reports the modelled cost of
  each stage.

Every kernel is *value-identical* to the builtin ``pow`` it replaces and
never consumes randomness, so ciphertexts, answers, and digests are byte
for byte the same with fast paths on or off.  What changes is the exact
multiplication count, which each kernel reports through an optional
:class:`MulLedger` and through analytic cost properties derived from the
*same* window decomposition the evaluator executes — the profiler
(:mod:`repro.obs.profile`) and the perf sentinel consume those counts, so
the speedups are gated as dropping integers, not as wall-clock noise.

The module-level switch (:func:`set_enabled`, honoring ``REPRO_FASTEXP=0``
at import) lets callers and CI prove the on/off equivalence.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import CryptoError

#: Largest window width ever considered; 2^(w-1) table entries per base.
MAX_WINDOW = 8

_enabled = os.environ.get("REPRO_FASTEXP", "1") != "0"


def enabled() -> bool:
    """Whether the fast paths are active (default on; ``REPRO_FASTEXP=0``)."""
    return _enabled


def set_enabled(flag: bool) -> bool:
    """Flip the fast paths on/off; returns the previous setting."""
    global _enabled
    previous = _enabled
    _enabled = bool(flag)
    return previous


@contextmanager
def forced(flag: bool) -> Iterator[None]:
    """Temporarily force the fast paths on or off (equivalence proofs)."""
    previous = set_enabled(flag)
    try:
        yield
    finally:
        set_enabled(previous)


@dataclass
class MulLedger:
    """A running big-integer multiplication count, threaded through kernels."""

    muls: int = 0

    def add(self, count: int) -> None:
        """Record ``count`` more modular multiplications."""
        self.muls += count


def binary_pow_cost(exponent: int) -> int:
    """Multiplications of plain square-and-multiply (the pre-window model)."""
    e = abs(exponent)
    if e <= 1:
        return 0
    return (e.bit_length() - 1) + (e.bit_count() - 1)


def _decompose(exponent: int, window: int) -> list[tuple[int, int]]:
    """MSB-first sliding-window program for ``exponent``.

    Returns ``[(shift, digit), ...]`` evaluated as
    ``acc = acc^(2^shift) * table[digit]`` (``digit == 0`` means squarings
    only); the first entry seeds ``acc = table[digit]`` with no squarings.
    Digits are odd and below ``2^window``, so one odd-power table serves
    the whole program.
    """
    if exponent < 0:
        raise CryptoError("window decomposition needs a non-negative exponent")
    if not 1 <= window <= MAX_WINDOW:
        raise CryptoError(f"window width must be in [1, {MAX_WINDOW}]")
    program: list[tuple[int, int]] = []
    i = exponent.bit_length() - 1
    pending = 0
    while i >= 0:
        if not (exponent >> i) & 1:
            pending += 1
            i -= 1
            continue
        width = min(window, i + 1)
        chunk = (exponent >> (i + 1 - width)) & ((1 << width) - 1)
        while not chunk & 1:  # keep digits odd: defer trailing zeros
            chunk >>= 1
            width -= 1
        program.append((pending + width, chunk))
        pending = 0
        i -= width
    if pending:
        program.append((pending, 0))
    return program


def _table_muls(max_digit: int) -> int:
    """Multiplications to build the odd powers ``base^1 .. base^max_digit``.

    ``base^2`` costs one squaring, then each further odd power one multiply.
    """
    return 0 if max_digit <= 1 else 1 + (max_digit - 1) // 2


class WindowPlan:
    """The reusable sliding-window program of one *fixed* exponent.

    Decomposing the exponent costs zero multiplications, so a plan is pure
    precomputation: build once per (key, level), evaluate many times.  The
    per-call cost splits into :attr:`table_muls` (the odd-power table of
    the fresh base) and :attr:`chain_muls` (squarings plus window
    multiplies) — reported separately because the profiler charges window
    tables apart from per-call chain work.
    """

    __slots__ = ("exponent", "window", "program", "max_digit")

    def __init__(self, exponent: int, window: int) -> None:
        self.exponent = exponent
        self.window = window
        self.program = _decompose(exponent, window)
        self.max_digit = max((d for _, d in self.program), default=0)

    @property
    def table_muls(self) -> int:
        """Per-call multiplications spent on the base's odd-power table."""
        return _table_muls(self.max_digit)

    @property
    def chain_muls(self) -> int:
        """Per-call squarings plus window multiplies (table excluded)."""
        if not self.program:
            return 0
        squarings = sum(shift for shift, _ in self.program[1:])
        window_muls = sum(1 for _, digit in self.program[1:] if digit)
        return squarings + window_muls

    @property
    def per_call_muls(self) -> int:
        """Total exact multiplications of one :meth:`powmod` call."""
        return self.table_muls + self.chain_muls

    def powmod(
        self, base: int, modulus: int, ledger: MulLedger | None = None
    ) -> int:
        """``base^exponent mod modulus`` — value-identical to ``pow``."""
        if not self.program:
            return 1 % modulus
        base %= modulus
        table = {1: base}
        if self.max_digit > 1:
            base2 = base * base % modulus
            power = base
            for digit in range(3, self.max_digit + 1, 2):
                power = power * base2 % modulus
                table[digit] = power
        acc: int | None = None
        for shift, digit in self.program:
            if acc is None:
                acc = table[digit]
                continue
            for _ in range(shift):
                acc = acc * acc % modulus
            if digit:
                acc = acc * table[digit] % modulus
        if ledger is not None:
            ledger.add(self.per_call_muls)
        return acc


def plan(exponent: int, window: int | None = None) -> WindowPlan:
    """The cheapest :class:`WindowPlan` for ``exponent``.

    With ``window=None`` every width in ``[1, MAX_WINDOW]`` is costed
    exactly and the first minimum wins — deterministic, and ``O(bits)``
    per candidate, which is negligible against even one evaluation.
    """
    if window is not None:
        return WindowPlan(exponent, window)
    best: WindowPlan | None = None
    for width in range(1, MAX_WINDOW + 1):
        candidate = WindowPlan(exponent, width)
        if best is None or candidate.per_call_muls < best.per_call_muls:
            best = candidate
    return best


def default_window(bits: int) -> int:
    """A good per-term window width for a ``bits``-long *varying* exponent.

    Minimizes the expected marginal cost ``table + windows`` a term adds
    to a shared-squaring multi-exponentiation: ``2^(w-1)`` table entries
    against roughly ``bits / (w + 1)`` window multiplies.
    """
    if bits <= 1:
        return 1
    best_width, best_cost = 1, float("inf")
    for width in range(1, MAX_WINDOW + 1):
        cost = (1 << (width - 1)) + (bits - 1) / (width + 1)
        if cost < best_cost:
            best_width, best_cost = width, cost
    return best_width


def multi_programs(
    exponents: Sequence[int], window: int | None = None
) -> list[list[tuple[int, int]]]:
    """Per-exponent window programs with absolute bit positions.

    Each program is ``[(lsb_position, digit), ...]`` — the digit is
    multiplied in when the shared squaring chain reaches its least
    significant bit.  :func:`multi_pow` evaluates them.
    """
    programs = []
    for exponent in exponents:
        if exponent < 0:
            raise CryptoError("multi_pow needs non-negative exponents")
        width = window if window is not None else default_window(
            exponent.bit_length()
        )
        events = []
        position = exponent.bit_length() - 1
        while position >= 0:
            if not (exponent >> position) & 1:
                position -= 1
                continue
            take = min(width, position + 1)
            chunk = (exponent >> (position + 1 - take)) & ((1 << take) - 1)
            while not chunk & 1:
                chunk >>= 1
                take -= 1
            events.append((position + 1 - take, chunk))
            position -= take
        programs.append(events)
    return programs


def _term_costs(
    programs: Sequence[Sequence[tuple[int, int]]]
) -> list[tuple[int, int]]:
    """Per program, ``(own, chain)``: its table and window multiplies, and
    the squarings the shared chain needs to reach its first window.

    Programs evaluated together cost ``sum(own) + max(chain) - 1``, or 0
    when every program is empty (then every ``own`` is 0).
    """
    return [
        (_table_muls(max(digit for _, digit in events)) + len(events), events[0][0])
        if events
        else (0, 0)
        for events in programs
    ]


def _joint_cost(own: float, chain: int) -> float:
    return own + chain - 1 if own else 0


def _multi_cost(programs: Sequence[Sequence[tuple[int, int]]]) -> int:
    """Exact multiplication count of evaluating ``programs`` interleaved."""
    costs = _term_costs(programs)
    return _joint_cost(
        sum(own for own, _ in costs), max((chain for _, chain in costs), default=0)
    )


def multi_pow_cost(
    exponents: Sequence[int], window: int | None = None
) -> int:
    """Exact multiplications :func:`multi_pow` will spend on ``exponents``."""
    return _multi_cost(multi_programs(exponents, window))


def _term_estimate(exponent: int) -> tuple[float, int]:
    """A model of one term's ``(own, chain)`` (:func:`_term_costs`) from
    its bit length alone, at the window :func:`multi_programs` gives it.

    A b-bit exponent at window w is modelled with a full odd-power table,
    one window for its top bit and one per ``w + 1`` bits below it (the
    count :func:`default_window` minimizes), and a top window w bits
    wide.  Exact for exponents 0 and 1.
    """
    if exponent < 0:
        raise CryptoError("multi_pow needs non-negative exponents")
    bits = exponent.bit_length()
    if not bits:
        return 0.0, 0
    width = default_window(bits)
    return _table_muls((1 << width) - 1) + 1 + (bits - 1) / (width + 1), bits - width


def estimated_cut(exponents: Sequence[int]) -> tuple[int, float, float, float]:
    """Where to cut a product in two so that its costlier side costs least,
    by :func:`_term_estimate`'s model: no exponent is decomposed.

    Returns ``(cut, whole, head, tail)``, the modelled multiplications of
    all of ``exponents`` in one chain, of ``exponents[:cut]`` and of
    ``exponents[cut:]`` (each side pays its own squaring chain).  With
    fewer than two exponents nothing is cut: ``cut`` is their count,
    ``head`` is ``whole`` and ``tail`` is 0.
    """
    costs = [_term_estimate(exponent) for exponent in exponents]
    total_own = sum(own for own, _ in costs)
    tail_chain = [0] * (len(costs) + 1)
    for index in range(len(costs) - 1, -1, -1):
        tail_chain[index] = max(tail_chain[index + 1], costs[index][1])
    whole = _joint_cost(total_own, tail_chain[0])
    best = (len(costs), whole, whole, 0.0)
    head_own = 0.0
    head_chain = 0
    for index in range(1, len(costs)):
        own, chain = costs[index - 1]
        head_own += own
        head_chain = max(head_chain, chain)
        head = _joint_cost(head_own, head_chain)
        tail = _joint_cost(total_own - head_own, tail_chain[index])
        if max(head, tail) < max(best[2:]):
            best = (index, whole, head, tail)
    return best


def multi_pow(
    pairs: Sequence[tuple[int, int]],
    modulus: int,
    window: int | None = None,
    ledger: MulLedger | None = None,
) -> int:
    """``prod base_i^{exponent_i} mod modulus`` via interleaved windows.

    The Straus/Shamir trick: one squaring chain of ``max_i bits(e_i)``
    steps shared by every term, with per-term odd-power tables.  Exact
    cost is :func:`multi_pow_cost` of the same exponents (asserted equal
    in tests); value-identical to the product of builtin ``pow`` calls.
    """
    programs = multi_programs([exponent for _, exponent in pairs], window)
    events_at: dict[int, list[tuple[int, int]]] = {}
    tables: list[dict[int, int]] = []
    for (base, _), events in zip(pairs, programs, strict=True):
        index = len(tables)
        base %= modulus
        table = {1: base}
        max_digit = max((digit for _, digit in events), default=0)
        if max_digit > 1:
            base2 = base * base % modulus
            power = base
            for digit in range(3, max_digit + 1, 2):
                power = power * base2 % modulus
                table[digit] = power
        tables.append(table)
        for position, digit in events:
            events_at.setdefault(position, []).append((index, digit))
    if not events_at:
        return 1 % modulus
    acc: int | None = None
    for position in range(max(events_at), -1, -1):
        if acc is not None:
            acc = acc * acc % modulus
        for index, digit in events_at.get(position, ()):
            value = tables[index][digit]
            acc = value if acc is None else acc * value % modulus
    if ledger is not None:
        ledger.add(_multi_cost(programs))
    return acc

