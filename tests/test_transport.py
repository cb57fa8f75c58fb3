"""Unit tests for the transport layer: envelopes, retries, channels.

End-to-end chaos runs live in ``test_transport_chaos.py``; this module
pins the building blocks — checksum detection, sequence-number dedup,
backoff determinism, per-link fault injection, scripted deaths.
"""

import random

import pytest

from repro.errors import (
    ConfigurationError,
    GroupMemberLostError,
    RetryExhaustedError,
)
from repro.geometry.point import Point
from repro.protocol.messages import (
    GenericMessage,
    LocationSetUpload,
    PositionAssignment,
)
from repro.protocol.metrics import COORDINATOR, USER, CostLedger
from repro.transport.channel import Delivery, FaultyChannel, PerfectChannel
from repro.transport.envelope import (
    ENVELOPE_OVERHEAD_BYTES,
    Envelope,
    Nack,
    payload_checksum,
    payload_fingerprint,
    seal,
)
from repro.transport.faults import FaultPlan, LinkFaults, tamper
from repro.transport.retry import RetryPolicy
from repro.transport.transport import (
    NETWORK,
    Transport,
    party_role,
    send,
    user_index,
)

LINK = ("coordinator", "user:0")


def make_envelope(seq=0, payload=None):
    return seal(LINK, seq, payload or PositionAssignment(3))


class TestEnvelope:
    def test_seal_is_intact(self):
        assert make_envelope().intact

    def test_byte_size_adds_framing(self):
        message = PositionAssignment(3)
        assert make_envelope(payload=message).byte_size == (
            message.byte_size + ENVELOPE_OVERHEAD_BYTES
        )

    def test_transcript_kind_names_payload(self):
        assert make_envelope().transcript_kind == "PositionAssignment"
        assert Nack(0).transcript_kind == "Nack"

    def test_fingerprint_depends_on_content(self):
        a = payload_fingerprint(PositionAssignment(3))
        b = payload_fingerprint(PositionAssignment(4))
        assert a != b

    def test_fingerprint_covers_ciphertexts(self, tiny_keypair):
        _, pk = tiny_keypair
        rng = random.Random(5)
        c1 = pk.encrypt(1, rng=rng)
        c2 = pk.encrypt(1, rng=rng)  # same plaintext, fresh randomness
        assert payload_checksum(c1) != payload_checksum(c2)

    def test_fingerprint_covers_locations(self):
        a = LocationSetUpload(0, (Point(0.1, 0.2),))
        b = LocationSetUpload(0, (Point(0.1, 0.3),))
        assert payload_checksum(a) != payload_checksum(b)

    def test_negative_seq_rejected(self):
        from repro.errors import TransportError

        with pytest.raises(TransportError):
            Envelope(LINK, -1, PositionAssignment(0), 0)


class TestTamper:
    """Whatever tamper() emits, the checksum must catch."""

    @pytest.mark.parametrize("seed", range(10))
    def test_tampered_copy_never_passes_checksum(self, tiny_keypair, seed):
        _, pk = tiny_keypair
        rng = random.Random(seed)
        messages = [
            PositionAssignment(7),
            LocationSetUpload(2, (Point(0.5, 0.5), Point(0.25, 0.75))),
            GenericMessage("blob", 64),
        ]
        from repro.protocol.messages import EncryptedAnswer

        messages.append(
            EncryptedAnswer((pk.encrypt(9, rng=random.Random(1)),))
        )
        for message in messages:
            damaged = tamper(message, rng)
            assert payload_checksum(damaged) != payload_checksum(message)

    def test_same_wire_size(self):
        message = LocationSetUpload(1, (Point(0.3, 0.4),))
        assert tamper(message, random.Random(0)).byte_size == message.byte_size

    def test_ciphertext_value_stays_in_residue_space(self, tiny_keypair):
        from repro.protocol.messages import EncryptedAnswer

        _, pk = tiny_keypair
        c = pk.encrypt(3, rng=random.Random(2))
        for seed in range(20):
            damaged = tamper(EncryptedAnswer((c,)), random.Random(seed))
            flipped = damaged.ciphertexts[0]
            assert 0 <= flipped.value < pk.ciphertext_modulus(flipped.s)
            assert flipped.value != c.value


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(timeout_seconds=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(jitter_fraction=1.0)
        with pytest.raises(ConfigurationError):
            RetryPolicy(base_backoff_seconds=2.0, max_backoff_seconds=1.0)

    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(
            base_backoff_seconds=0.01,
            backoff_multiplier=2.0,
            max_backoff_seconds=0.05,
            jitter_fraction=0.0,
        )
        waits = [policy.backoff(a, LINK, 0) for a in range(1, 6)]
        assert waits[0] == pytest.approx(0.01)
        assert waits[1] == pytest.approx(0.02)
        assert waits == sorted(waits)
        assert waits[-1] == pytest.approx(0.05)  # capped

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(jitter_fraction=0.2)
        a = policy.backoff(1, LINK, 5)
        b = policy.backoff(1, LINK, 5)
        assert a == b
        raw = policy.base_backoff_seconds
        assert raw * 0.8 <= a <= raw * 1.2
        # Different links jitter differently (almost surely).
        assert policy.backoff(1, ("lsp", "coordinator"), 5) != a


class TestFaultPlan:
    def test_rate_validation(self):
        with pytest.raises(ConfigurationError):
            LinkFaults(drop=1.0)
        with pytest.raises(ConfigurationError):
            LinkFaults(latency_seconds=-0.1)
        with pytest.raises(ConfigurationError):
            FaultPlan(kill={"user:0": -1})

    def test_uniform_sets_all_rates(self):
        plan = FaultPlan.uniform(0.1, seed=3)
        faults = plan.for_link(LINK)
        assert (faults.drop, faults.duplicate, faults.reorder, faults.corrupt) == (
            0.1,
        ) * 4

    def test_per_link_override(self):
        special = LinkFaults(drop=0.5)
        plan = FaultPlan(links={LINK: special})
        assert plan.for_link(LINK) is special
        assert plan.for_link(("lsp", "coordinator")).drop == 0.0


class TestChannels:
    def test_perfect_delivers_exactly_once(self):
        env = make_envelope()
        deliveries = PerfectChannel().transmit(env)
        assert [d.envelope for d in deliveries] == [env]
        assert deliveries[0].latency_seconds == 0.0

    def test_faulty_is_deterministic(self):
        def run():
            channel = FaultyChannel(FaultPlan.uniform(0.3, seed=42))
            out = []
            for seq in range(30):
                for delivery in channel.transmit(make_envelope(seq)):
                    out.append((delivery.envelope.seq, delivery.envelope.intact))
            return out

        assert run() == run()

    def test_drop_everything(self):
        channel = FaultyChannel(FaultPlan(default=LinkFaults(drop=0.999)))
        lost = sum(
            not channel.transmit(make_envelope(seq)) for seq in range(50)
        )
        assert lost >= 45

    def test_duplicates_arrive_twice(self):
        channel = FaultyChannel(FaultPlan(default=LinkFaults(duplicate=0.999)))
        assert len(channel.transmit(make_envelope())) == 2

    def test_reordered_copy_arrives_on_next_transmit(self):
        channel = FaultyChannel(FaultPlan(default=LinkFaults(reorder=0.999)))
        assert channel.transmit(make_envelope(0)) == []
        arrived = channel.transmit(make_envelope(1))
        assert {d.envelope.seq for d in arrived} == {0}  # 1 held back again

    def test_latency_charged(self):
        channel = FaultyChannel(
            FaultPlan(default=LinkFaults(latency_seconds=0.25))
        )
        (delivery,) = channel.transmit(make_envelope())
        assert delivery.latency_seconds == pytest.approx(0.25)

    def test_kill_after_m_messages(self):
        channel = FaultyChannel(FaultPlan(kill={"coordinator": 1}))
        assert channel.transmit(make_envelope(0))  # first send passes
        assert channel.transmit(make_envelope(1)) == []  # dead afterwards
        assert channel.killed_party(LINK) == "coordinator"

    def test_dead_receiver_swallows(self):
        channel = FaultyChannel(FaultPlan(kill={"user:0": 0}))
        assert channel.transmit(make_envelope()) == []
        assert channel.killed_party(LINK) == "user:0"

    def test_revive_restores_link(self):
        channel = FaultyChannel(FaultPlan(kill={"user:0": 0}))
        channel.revive("user:0")
        assert channel.transmit(make_envelope())
        assert channel.killed_party(LINK) is None


class DropFirstN(PerfectChannel):
    """Test double: lose the first n transmissions, then behave."""

    def __init__(self, n):
        self.n = n

    def transmit(self, envelope):
        if self.n > 0:
            self.n -= 1
            return []
        return super().transmit(envelope)


class CorruptFirstN(PerfectChannel):
    """Test double: damage the first n transmissions, then behave."""

    def __init__(self, n):
        self.n = n
        self.rng = random.Random(0)

    def transmit(self, envelope):
        if self.n > 0:
            self.n -= 1
            damaged = Envelope(
                envelope.link,
                envelope.seq,
                tamper(envelope.payload, self.rng),
                envelope.checksum,
            )
            return [Delivery(damaged)]
        return super().transmit(envelope)


class TestTransport:
    def test_perfect_delivery_returns_payload(self):
        ledger = CostLedger()
        message = PositionAssignment(9)
        delivered = Transport().deliver(ledger, *LINK, message)
        assert delivered is message
        assert ledger.comm_bytes[(COORDINATOR, USER)] == (
            message.byte_size + ENVELOPE_OVERHEAD_BYTES
        )

    def test_retries_until_delivered(self):
        transport = Transport(DropFirstN(2), RetryPolicy(max_attempts=4))
        ledger = CostLedger()
        delivered = transport.deliver(ledger, *LINK, PositionAssignment(1))
        assert delivered.position == 1
        assert transport.stats.retransmissions == 2
        assert transport.stats.timeouts == 2
        assert ledger.message_counts[(COORDINATOR, USER)] == 3
        assert ledger.times[NETWORK] > 0

    def test_exhaustion_raises_typed_error(self):
        transport = Transport(DropFirstN(99), RetryPolicy(max_attempts=3))
        with pytest.raises(RetryExhaustedError) as excinfo:
            transport.deliver(CostLedger(), *LINK, PositionAssignment(1))
        assert excinfo.value.link == LINK
        assert excinfo.value.attempts == 3

    def test_corruption_rejected_and_nacked(self):
        transport = Transport(CorruptFirstN(1), RetryPolicy(max_attempts=3))
        ledger = CostLedger()
        delivered = transport.deliver(ledger, *LINK, PositionAssignment(5))
        assert delivered.position == 5  # the clean retransmission won
        assert transport.stats.corrupt_rejected == 1
        assert transport.stats.nacks_sent == 1
        # The NACK travelled the reverse link and was charged.
        assert ledger.comm_bytes[(USER, COORDINATOR)] == Nack(0).byte_size
        kinds = [entry.kind for entry in ledger.transcript]
        assert kinds == ["PositionAssignment", "Nack", "PositionAssignment"]

    def test_duplicates_discarded_by_seq(self):
        class DuplicateAlways(PerfectChannel):
            def transmit(self, envelope):
                return [Delivery(envelope), Delivery(envelope)]

        transport = Transport(DuplicateAlways())
        ledger = CostLedger()
        for position in range(3):
            transport.deliver(ledger, *LINK, PositionAssignment(position))
        assert transport.stats.duplicates_discarded == 3
        assert transport.stats.messages == 3

    def test_dead_user_surfaces_as_member_lost(self):
        channel = FaultyChannel(FaultPlan(kill={"user:0": 0}))
        transport = Transport(channel, RetryPolicy(max_attempts=2))
        with pytest.raises(GroupMemberLostError) as excinfo:
            transport.deliver(CostLedger(), *LINK, PositionAssignment(0))
        assert excinfo.value.user_index == 0
        assert excinfo.value.party == "user:0"

    def test_dead_lsp_is_not_member_lost(self):
        channel = FaultyChannel(FaultPlan(kill={"lsp": 0}))
        transport = Transport(channel, RetryPolicy(max_attempts=2))
        with pytest.raises(RetryExhaustedError) as excinfo:
            transport.deliver(
                CostLedger(), "coordinator", "lsp", PositionAssignment(0)
            )
        # The plain base class: a dead provider is a dead link, and
        # ResilientSession must not regroup around it.
        assert type(excinfo.value) is RetryExhaustedError
        assert excinfo.value.link == ("coordinator", "lsp")
        assert excinfo.value.attempts == 2


class TestSendHelper:
    def test_none_transport_matches_plain_record(self):
        message = PositionAssignment(2)
        via_helper, via_record = CostLedger(), CostLedger()
        delivered = send(None, via_helper, "user:4", "lsp", message)
        via_record.record("user", "lsp", message)
        assert delivered is message
        assert via_helper.comm_bytes == via_record.comm_bytes
        assert via_helper.transcript == via_record.transcript

    def test_party_role_parsing(self):
        assert party_role("user:12") == "user"
        assert party_role("coordinator") == "coordinator"
        assert party_role("lsp") == "lsp"
        with pytest.raises(ConfigurationError):
            party_role("mallory")

    def test_user_index_parsing(self):
        assert user_index("user:7") == 7
        assert user_index("lsp") is None
        assert user_index("coordinator") is None
