"""Exception hierarchy for the PPGNN reproduction library.

All library-raised errors derive from :class:`ReproError` so callers can
catch everything the library produces with a single ``except`` clause while
still being able to distinguish configuration mistakes from protocol
violations.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(ReproError, ValueError):
    """A parameter value is outside its documented domain.

    Examples: ``d < 2`` for the Privacy I anonymity parameter, a ``delta``
    larger than ``d ** n`` (no feasible partition exists), or a key size too
    small to hold an encoded answer integer.
    """


class CryptoError(ReproError):
    """A cryptographic operation failed or was used inconsistently.

    Raised for plaintexts outside the plaintext space, ciphertexts combined
    under mismatching public keys, or decryption with the wrong key.
    """


class EncodingError(ReproError):
    """Answer encoding or decoding failed.

    Raised when a value does not fit its packed field width, or when a
    decoded buffer is structurally invalid.
    """


class ProtocolError(ReproError):
    """A party received a message that violates the protocol state machine."""


class GuardError(ProtocolError):
    """A hostile-input defense in :mod:`repro.guard` fired.

    Every guard rejection names the protocol round it happened in and the
    party whose inbound message (or silence) triggered it, so an operator
    can attribute the abuse without replaying the transcript.
    """

    def __init__(self, message: str, *, round_id: int = 0, party: str = "") -> None:
        self.round_id = round_id
        self.party = party
        origin = f" [round {round_id}, party {party or '?'}]"
        super().__init__(message + origin)


class ProtocolStateError(GuardError):
    """A message arrived out of order, duplicated, or in the wrong phase.

    Raised by the per-role state machines of :mod:`repro.guard.state`: a
    replayed upload, a second query request, an answer before any request —
    anything the round's phase ordering forbids.
    """


class InboundValidationError(GuardError):
    """An inbound message is structurally or cryptographically malformed.

    Raised by :mod:`repro.guard.validate` before the payload reaches the
    crypto layer: ciphertexts outside ``Z*_{N^{s+1}}``, wrong level tags,
    indicator/candidate shapes that contradict the solved partition,
    NaN/out-of-space locations, undecodable plaintexts.
    """


class DeadlineExceededError(GuardError):
    """A round blew its simulated-network time budget.

    Carries the ``elapsed`` and ``budget`` seconds plus a partial
    ``report`` (a :class:`~repro.protocol.metrics.CostReport` frozen at
    abort time) so callers can account the wasted traffic instead of
    hanging on a silent or stalling counterpart.
    """

    def __init__(
        self,
        *,
        round_id: int = 0,
        party: str = "",
        elapsed: float = 0.0,
        budget: float = 0.0,
        report: object | None = None,
    ) -> None:
        self.elapsed = elapsed
        self.budget = budget
        self.report = report
        super().__init__(
            f"round deadline exceeded: {elapsed:.3f}s of simulated network "
            f"time against a budget of {budget:.3f}s",
            round_id=round_id,
            party=party,
        )


class CheckpointError(ReproError):
    """A session checkpoint could not be restored.

    Raised for version/field mismatches the byte-level
    :class:`CryptoError` checks cannot express, e.g. a checkpoint naming
    an unknown protocol.
    """


class InfeasibleError(ConfigurationError):
    """No feasible solution exists for an optimization problem instance.

    Raised by the partition-parameter solver when ``delta > d ** n`` — the
    paper requires users to pick a larger ``d`` in that case.
    """


class TransportError(ReproError):
    """A message could not be carried across an unreliable channel.

    Base class for delivery failures in :mod:`repro.transport`; protocol
    answers are never silently wrong — an undeliverable message surfaces
    as one of the subclasses below instead.
    """


class RetryExhaustedError(TransportError):
    """Every retransmission attempt for one message failed.

    Carries the directed ``link`` and the number of ``attempts`` made so
    callers can report which hop of the protocol died.  When a session
    retry *budget* (see :class:`~repro.transport.retry.RetryPolicy`
    ``retry_budget``) is what gave up, ``retries_spent`` and
    ``retry_budget`` carry the accounting.
    """

    # Class-level defaults so subclasses that bypass this __init__
    # (ShardLostError) still expose the budget accounting attributes.
    retries_spent: int | None = None
    retry_budget: int | None = None

    def __init__(
        self,
        link: tuple[str, str],
        attempts: int,
        *,
        retries_spent: int | None = None,
        retry_budget: int | None = None,
    ) -> None:
        self.link = link
        self.attempts = attempts
        self.retries_spent = retries_spent
        self.retry_budget = retry_budget
        message = f"link {link[0]} -> {link[1]} dead after {attempts} attempts"
        if retry_budget is not None:
            # The session-wide retry budget gave up, not the per-message
            # attempt loop: say so, with the accounting attached.
            message = (
                f"link {link[0]} -> {link[1]} abandoned: session retry "
                f"budget exhausted ({retries_spent} of {retry_budget} "
                "retransmissions spent)"
            )
        super().__init__(message)


class ShardLostError(RetryExhaustedError):
    """An LSP shard (every reachable replica of it) is unreachable.

    Distinguishes a dead *party* on the provider side from a merely dead
    channel: the failed endpoint was a scripted-dead LSP, so retrying the
    same link is pointless — the cure is failover to another replica or,
    past the quorum, a degraded :class:`~repro.cluster.merge.PartialAnswer`.
    Deliberately *not* a :class:`GroupMemberLostError`: losing a shard
    never invalidates the group's partition layout, so
    :class:`~repro.transport.session.ResilientSession` must not regroup
    around it.
    """

    def __init__(
        self,
        party: str,
        shard_id: int,
        link: tuple[str, str],
        attempts: int,
    ) -> None:
        self.party = party
        self.shard_id = shard_id
        # Skip RetryExhaustedError.__init__ to keep its fields but not
        # its message; a dead shard is not a dead link.
        self.link = link
        self.attempts = attempts
        TransportError.__init__(
            self,
            f"LSP shard {shard_id} ({party}) unreachable after "
            f"{attempts} attempts",
        )


class GroupMemberLostError(TransportError, ProtocolError):
    """A group member became unreachable mid-protocol.

    Also a :class:`ProtocolError`: losing a member invalidates the round's
    partition layout.  ``user_index`` identifies the lost member so a
    resilient caller can re-run the round with the survivors.
    """

    def __init__(self, party: str, user_index: int, attempts: int) -> None:
        self.party = party
        self.user_index = user_index
        self.attempts = attempts
        super().__init__(
            f"group member {party} unreachable after {attempts} attempts"
        )


class BackpressureError(ReproError):
    """The serving engine refused to accept more work.

    Base class for admission-control rejections in :mod:`repro.serve`; a
    rejected query is never silently dropped — the engine counts it and
    surfaces one of the subclasses below in the serving report.  Every
    subclass exposes the queue ``depth`` and ``capacity`` observed at
    rejection time (None where the rejection happened before the queue).
    """

    depth: int | None = None
    capacity: int | None = None


class QueueFullError(BackpressureError):
    """A bounded scheduler queue is at capacity.

    Carries the queue ``depth`` at rejection time and the configured
    ``capacity`` so operators can size queues from the report.
    """

    def __init__(self, depth: int, capacity: int) -> None:
        self.depth = depth
        self.capacity = capacity
        super().__init__(f"queue full: {depth} waiting against capacity {capacity}")


class AdmissionRejectedError(BackpressureError):
    """Admission control turned a query away before it reached the queue.

    ``tenant`` names the over-quota tenant and ``in_flight`` its
    admitted-but-unfinished query count at rejection time.
    """

    def __init__(self, tenant: str, in_flight: int, limit: int) -> None:
        self.tenant = tenant
        self.in_flight = in_flight
        self.limit = limit
        super().__init__(
            f"tenant {tenant!r} over quota: {in_flight} in flight, limit {limit}"
        )


class OverloadSheddedError(AdmissionRejectedError):
    """The overload controller shed this session at admission time.

    Unlike a quota rejection this is a *load* decision, not a fairness
    one: the control loop's pressure signal (``burn_rate``, the max SLO
    burn observed at the most recent control tick) crossed the brownout
    threshold and ``tenant`` was selected for shedding.
    ``retry_after_tick`` is the control tick after which the client
    should retry — the controller's own estimate of when pressure will
    have drained.
    """

    def __init__(
        self, tenant: str, *, retry_after_tick: int, burn_rate: float
    ) -> None:
        self.tenant = tenant
        self.retry_after_tick = retry_after_tick
        self.burn_rate = burn_rate
        # Skip AdmissionRejectedError.__init__: shedding has no quota
        # accounting, carrying in_flight/limit here would be a lie.
        self.in_flight = 0
        self.limit = 0
        BackpressureError.__init__(
            self,
            f"tenant {tenant!r} shed under overload (burn {burn_rate:.2f}x); "
            f"retry after control tick {retry_after_tick}",
        )


class PerfRegressionError(ReproError):
    """A benchmark run regressed against its committed baseline.

    Raised by the performance sentinel (:mod:`repro.bench.sentinel`) when
    an exact counter — operation counts, rounds, bytes on the wire —
    moved the wrong way relative to the baseline, the head of the run's
    lineage in the run ledger.  ``regressions`` carries the offending
    metric deltas so reports can name them.
    """

    def __init__(self, experiment: str, regressions: list) -> None:
        self.experiment = experiment
        self.regressions = regressions
        names = ", ".join(delta.name for delta in regressions)
        super().__init__(
            f"experiment {experiment!r} regressed {len(regressions)} "
            f"exact counter(s): {names}"
        )
