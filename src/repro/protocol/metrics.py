"""Cost accounting: bytes per link, CPU time per role, operation counts.

The ledger is the single sink every protocol run writes into; the
benchmark harness reads its :class:`CostReport` to produce the paper's
three series (communication cost, user cost, LSP cost).

Role conventions: ``"user"`` aggregates the regular group members,
``"coordinator"`` is u_c, and ``"lsp"`` is the server.  The paper's "user
cost" is the sum of user and coordinator time; exposed as
:attr:`CostReport.user_cost_seconds`.

The runners hand every protocol message over through :func:`send`: one
ledger record, then the object itself, as in the paper's reliable
channel.  Its ``tamper`` hook lets a test forge what a receiver gets.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.crypto.homomorphic import OpCounter
from repro.errors import ConfigurationError
from repro.protocol.messages import Message

USER = "user"
COORDINATOR = "coordinator"
LSP = "lsp"

_ROLES = (USER, COORDINATOR, LSP)

#: ``tamper(link, message) -> forged message | None`` — ``link`` is the
#: ``(sender, receiver)`` pair of party endpoints; None leaves the message
#: honest.
Mutator = Callable[[tuple[str, str], Message], Message | None]


@dataclass(frozen=True)
class TranscriptEntry:
    """One message crossing a link, in send order."""

    sender: str
    receiver: str
    kind: str
    byte_size: int


@dataclass(frozen=True)
class CostReport:
    """An immutable snapshot of one protocol run's costs."""

    comm_bytes_by_link: dict[tuple[str, str], int]
    time_by_role: dict[str, float]
    ops_by_role: dict[str, OpCounter]
    messages_by_link: dict[tuple[str, str], int]
    transcript: tuple[TranscriptEntry, ...] = ()

    @property
    def total_comm_bytes(self) -> int:
        """All bytes over all links — the paper's total communication cost."""
        return sum(self.comm_bytes_by_link.values())

    @property
    def intra_group_comm_bytes(self) -> int:
        """Bytes exchanged inside the user group (no LSP endpoint)."""
        return sum(
            size
            for (sender, receiver), size in self.comm_bytes_by_link.items()
            if LSP not in (sender, receiver)
        )

    @property
    def user_cost_seconds(self) -> float:
        """Summed computation of every group member, coordinator included."""
        return self.time_by_role.get(USER, 0.0) + self.time_by_role.get(COORDINATOR, 0.0)

    @property
    def lsp_cost_seconds(self) -> float:
        """The LSP's computation time."""
        return self.time_by_role.get(LSP, 0.0)

    def link_bytes(self, sender: str, receiver: str) -> int:
        """Bytes sent over one directed link."""
        return self.comm_bytes_by_link.get((sender, receiver), 0)


@dataclass
class CostLedger:
    """Mutable accumulator the protocol code writes into while running."""

    comm_bytes: defaultdict = field(
        default_factory=lambda: defaultdict(int)
    )
    message_counts: defaultdict = field(
        default_factory=lambda: defaultdict(int)
    )
    times: defaultdict = field(default_factory=lambda: defaultdict(float))
    counters: dict[str, OpCounter] = field(
        default_factory=lambda: {role: OpCounter() for role in _ROLES}
    )
    transcript: list = field(default_factory=list)

    def record(self, sender: str, receiver: str, message: Message) -> None:
        """Account one message crossing the ``sender -> receiver`` link."""
        size = message.byte_size
        self.comm_bytes[(sender, receiver)] += size
        self.message_counts[(sender, receiver)] += 1
        self.transcript.append(
            TranscriptEntry(sender, receiver, type(message).__name__, size)
        )

    @contextmanager
    def clock(self, role: str) -> Iterator[None]:
        """Attribute the wall time of the enclosed block to ``role``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.times[role] += time.perf_counter() - start

    def counter(self, role: str) -> OpCounter:
        """The homomorphic-operation counter of one role."""
        return self.counters.setdefault(role, OpCounter())

    def report(self) -> CostReport:
        """Freeze the current totals into a report."""
        return CostReport(
            comm_bytes_by_link=dict(self.comm_bytes),
            time_by_role=dict(self.times),
            ops_by_role={role: c for role, c in self.counters.items()},
            messages_by_link=dict(self.message_counts),
            transcript=tuple(self.transcript),
        )


def party_role(party: str) -> str:
    """Map a party endpoint onto its ledger accounting role.

    Endpoints are ``"coordinator"``, ``"lsp"`` and ``"user:<i>"``.
    """
    role = party.split(":", 1)[0]
    if role not in _ROLES:
        raise ConfigurationError(f"unknown party endpoint {party!r}")
    return role


def send(
    ledger: CostLedger,
    sender: str,
    receiver: str,
    message: Message,
    tamper: Mutator | None = None,
) -> Message:
    """Hand one protocol message from ``sender`` to ``receiver``.

    The ledger records the honest message, and the receiver gets the same
    object.  When ``tamper`` returns a forged message for this link, the
    receiver gets the forgery instead, as from a cheating sender.
    """
    ledger.record(party_role(sender), party_role(receiver), message)
    if tamper is not None:
        forged = tamper((sender, receiver), message)
        if forged is not None:
            return forged
    return message
