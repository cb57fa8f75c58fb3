"""Reliable delivery over unreliable channels.

:class:`Transport` is the layer the protocol runners talk to when a
``transport=`` is supplied: it wraps each protocol message in a
sequence-numbered, checksummed :class:`~repro.transport.envelope.Envelope`,
pushes it through the configured channel, and drives the
:class:`~repro.transport.retry.RetryPolicy` until one intact copy is
accepted — discarding duplicates and stale stragglers by sequence number
and answering corrupted copies with a NACK.  Every transmitted copy and
every NACK is recorded in the run's :class:`~repro.protocol.metrics
.CostLedger`, so the benchmark's communication numbers include the cost of
reliability; simulated waiting (latency, timeouts, backoff) accrues under
the ledger's ``"network"`` clock, leaving the paper's user/LSP CPU costs
untouched.

Party endpoints are strings — ``"coordinator"``, ``"lsp"``, ``"user:3"``
— whose role prefix maps onto the ledger's aggregated role accounting.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.errors import (
    ConfigurationError,
    GroupMemberLostError,
    RetryExhaustedError,
)
from repro.obs import Observability, maybe_span
from repro.protocol.messages import Message
from repro.protocol.metrics import COORDINATOR, LSP, USER, CostLedger
from repro.transport.channel import Channel, PerfectChannel
from repro.transport.envelope import Nack, seal
from repro.transport.retry import RetryPolicy

#: Ledger role that accrues simulated network waiting time.
NETWORK = "network"


def party_role(party: str) -> str:
    """Map a party endpoint onto its ledger accounting role."""
    role = party.split(":", 1)[0]
    if role not in (USER, COORDINATOR, LSP):
        raise ConfigurationError(f"unknown party endpoint {party!r}")
    return role


def user_index(party: str) -> int | None:
    """The user number of a ``user:i`` endpoint, else None."""
    prefix, _, index = party.partition(":")
    if prefix == USER and index.isdigit():
        return int(index)
    return None


@dataclass
class TransportStats:
    """Cumulative reliability counters across a transport's lifetime."""

    messages: int = 0
    attempts: int = 0
    retransmissions: int = 0
    timeouts: int = 0
    duplicates_discarded: int = 0
    stale_discarded: int = 0
    corrupt_rejected: int = 0
    nacks_sent: int = 0
    latency_seconds: float = 0.0
    backoff_seconds: float = 0.0

    def summary(self) -> str:
        return (
            f"{self.messages} messages in {self.attempts} attempts "
            f"({self.retransmissions} retransmissions, {self.timeouts} timeouts, "
            f"{self.duplicates_discarded} duplicates discarded, "
            f"{self.corrupt_rejected} corrupt rejected)"
        )


@dataclass
class Transport:
    """Sequence numbering + retry loop over one channel, for all links."""

    channel: Channel = field(default_factory=PerfectChannel)
    policy: RetryPolicy = field(default_factory=RetryPolicy)
    stats: TransportStats = field(default_factory=TransportStats)
    _next_seq: defaultdict = field(default_factory=lambda: defaultdict(int))
    _accepted: defaultdict = field(default_factory=lambda: defaultdict(set))
    obs: Observability | None = None

    def deliver(
        self, ledger: CostLedger, sender: str, receiver: str, message: Message
    ) -> Message:
        """Reliably deliver one message; returns the receiver's copy.

        Raises :class:`~repro.errors.GroupMemberLostError` when the failed
        endpoint is a scripted-dead group member, otherwise
        :class:`~repro.errors.RetryExhaustedError` after the policy's
        attempt budget.
        """
        with maybe_span(
            self.obs, "transport.send", link=f"{sender}->{receiver}"
        ) as span:
            return self._deliver(ledger, sender, receiver, message, span)

    def _deliver(
        self,
        ledger: CostLedger,
        sender: str,
        receiver: str,
        message: Message,
        span=None,
    ) -> Message:
        link = (sender, receiver)
        seq = self._next_seq[link]
        self._next_seq[link] += 1
        envelope = seal(link, seq, message)
        sender_role, receiver_role = party_role(sender), party_role(receiver)
        self.stats.messages += 1
        if self.obs is not None:
            self.obs.count("transport.messages")
        for attempt in range(1, self.policy.max_attempts + 1):
            if attempt > 1:
                self.stats.retransmissions += 1
                wait = self.policy.backoff(attempt - 1, link, seq)
                self.stats.backoff_seconds += wait
                ledger.times[NETWORK] += wait
                if self.obs is not None:
                    self.obs.count("transport.retries")
                    self.obs.count("transport.backoff_seconds", wait)
            self.stats.attempts += 1
            ledger.record(sender_role, receiver_role, envelope)
            accepted = self._receive(
                ledger, envelope, self.channel.transmit(envelope), receiver_role,
                sender_role,
            )
            if accepted is not None:
                if span is not None:
                    span.set(attempts=attempt, bytes=envelope.byte_size)
                return accepted
            self.stats.timeouts += 1
            ledger.times[NETWORK] += self.policy.timeout_seconds
        if self.obs is not None:
            self.obs.count("transport.exhausted")
        dead = self.channel.killed_party(link)
        if dead is not None:
            lost = user_index(dead)
            if lost is not None:
                raise GroupMemberLostError(dead, lost, self.policy.max_attempts)
        raise RetryExhaustedError(link, self.policy.max_attempts)

    def _receive(
        self,
        ledger: CostLedger,
        expected,
        deliveries,
        receiver_role: str,
        sender_role: str,
    ) -> Message | None:
        """Receiver side of one attempt window; returns the accepted payload."""
        accepted: Message | None = None
        for delivery in deliveries:
            self.stats.latency_seconds += delivery.latency_seconds
            ledger.times[NETWORK] += delivery.latency_seconds
            copy = delivery.envelope
            if not copy.intact:
                # Damaged in transit: reject loudly, ask for a resend.
                self.stats.corrupt_rejected += 1
                self.stats.nacks_sent += 1
                if self.obs is not None:
                    self.obs.count("transport.corrupt_rejected")
                ledger.record(receiver_role, sender_role, Nack(copy.seq))
                continue
            if copy.seq in self._accepted[copy.link]:
                self.stats.duplicates_discarded += 1
                continue
            if copy.seq != expected.seq:
                # A straggler for a message whose delivery already gave up.
                self.stats.stale_discarded += 1
                continue
            self._accepted[copy.link].add(copy.seq)
            accepted = copy.payload
        return accepted


def send(
    transport: Transport | None,
    ledger: CostLedger,
    sender: str,
    receiver: str,
    message: Message,
) -> Message:
    """Runner-side hook: one protocol message from ``sender`` to ``receiver``.

    Without a transport this is exactly the historical in-memory behavior —
    one ledger record, the object handed over untouched.  With one, the
    message rides the envelope/retry machinery and the *delivered* copy is
    returned, so anything the channel let through is what the protocol
    actually computes on.
    """
    if transport is None:
        ledger.record(party_role(sender), party_role(receiver), message)
        return message
    return transport.deliver(ledger, sender, receiver, message)
