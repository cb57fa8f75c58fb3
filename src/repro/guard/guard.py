"""The protocol guard the runners thread their messages through.

:class:`ProtocolGuard` is the per-session hardening configuration —
passing ``guard=None`` to a runner keeps the historical trusting
behavior byte-for-byte.  :meth:`ProtocolGuard.begin` arms one
:class:`RoundGuard` per protocol round: three role state machines
(coordinator / members / LSP) and the inbound validators of
:mod:`repro.guard.validate`.

The runner calls one hook per choreography step, always *before* the
delivered payload reaches the crypto layer; every rejection is a typed
:class:`~repro.errors.GuardError` subclass naming the round and the
offending party.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from repro.crypto.paillier import PaillierPublicKey
from repro.encoding.answers import AnswerCodec, DecodedAnswer
from repro.errors import (
    EncodingError,
    GuardError,
    InboundValidationError,
    ProtocolStateError,
)
from repro.obs import Observability
from repro.geometry.space import LocationSpace
from repro.guard.state import (
    LSPStateMachine,
    RoleStateMachine,
    coordinator_machine,
    lsp_machine,
    member_machine,
)
from repro.guard.validate import (
    check_ciphertext_vector,
    check_finite_point,
    check_location_set,
    check_plaintext,
    check_position,
)
from repro.partition.layout import GroupLayout
from repro.protocol.messages import (
    EncryptedAnswer,
    GroupQueryRequest,
    LocationSetUpload,
    OptGroupQueryRequest,
    PlaintextAnswerBroadcast,
    PositionAssignment,
)


def _observed(hook):
    """Count a hook's rejections before re-raising them."""

    @functools.wraps(hook)
    def wrapper(self, *args, **kwargs):
        try:
            return hook(self, *args, **kwargs)
        except GuardError:
            if self.obs is not None:
                self.obs.count("guard.violations")
            raise

    return wrapper


class RoundGuard:
    """Armed defenses for one protocol round.

    Built by :meth:`ProtocolGuard.begin`; the runner drives it through the
    round's choreography.  Constructor arguments pin the honest
    expectations: the solved layout, the session public key, the answer
    shape ``m``, and (for PPGNN-OPT) the two indicator lengths.
    """

    def __init__(
        self,
        *,
        layout: GroupLayout,
        public_key: PaillierPublicKey,
        space: LocationSpace,
        k: int,
        answer_m: int,
        answer_s: int = 1,
        inner_length: int | None = None,
        outer_length: int | None = None,
        round_id: int = 0,
        obs: Observability | None = None,
    ) -> None:
        self.layout = layout
        self.public_key = public_key
        self.space = space
        self.k = k
        self.answer_m = answer_m
        self.answer_s = answer_s
        self.inner_length = inner_length
        self.outer_length = outer_length
        self.round_id = round_id
        self.obs = obs
        self.coordinator: RoleStateMachine = coordinator_machine(round_id)
        self.members: dict[int, RoleStateMachine] = {
            i: member_machine(i, round_id) for i in range(layout.n)
        }
        self.lsp: LSPStateMachine = lsp_machine(layout.n, round_id)

    # ------------------------------------------------------------- plumbing

    def _member(self, user: int) -> RoleStateMachine:
        machine = self.members.get(user)
        if machine is None:
            raise ProtocolStateError(
                f"message addressed to unknown user {user}",
                round_id=self.round_id,
                party=f"user:{user}",
            )
        return machine

    # --------------------------------------------------------- choreography

    @_observed
    def planned(self) -> None:
        """The coordinator finished Algorithm 1's offline planning."""
        self.coordinator.advance("plan")

    @_observed
    def position_delivered(self, user: int, message: object) -> None:
        """A position assignment arrived at ``user``; validate before use."""
        self.coordinator.advance("send_position")
        self._member(user).advance("recv_position", party="coordinator")
        if not isinstance(message, PositionAssignment):
            raise InboundValidationError(
                f"expected a PositionAssignment, got {type(message).__name__}",
                round_id=self.round_id,
                party="coordinator",
            )
        check_position(
            message.position,
            self.layout.d,
            round_id=self.round_id,
            party="coordinator",
        )

    @_observed
    def request_delivered(self, request: object) -> None:
        """The query request arrived at the LSP; validate the indicators."""
        self.coordinator.advance("send_request")
        self.lsp.advance("recv_request", party="coordinator")
        if self.inner_length is not None:
            self._check_opt_request(request)
        else:
            self._check_group_request(request)

    def _check_common_request(self, request) -> None:
        if request.k != self.k:
            raise InboundValidationError(
                f"request k={request.k} contradicts the session k={self.k}",
                round_id=self.round_id,
                party="coordinator",
            )
        if request.public_key != self.public_key:
            raise InboundValidationError(
                "request public key is not the session key",
                round_id=self.round_id,
                party="coordinator",
            )
        params = self.layout.params
        if (
            tuple(request.subgroup_sizes) != tuple(params.subgroup_sizes)
            or tuple(request.segment_sizes) != tuple(params.segment_sizes)
        ):
            raise InboundValidationError(
                "request partition shape contradicts the solved partition",
                round_id=self.round_id,
                party="coordinator",
            )
        if request.theta0 is not None and not (
            math.isfinite(request.theta0) and 0.0 < request.theta0 <= 1.0
        ):
            raise InboundValidationError(
                f"theta0={request.theta0} outside (0, 1]",
                round_id=self.round_id,
                party="coordinator",
            )

    def _check_group_request(self, request: object) -> None:
        if not isinstance(request, GroupQueryRequest):
            raise ProtocolStateError(
                f"expected a GroupQueryRequest, got {type(request).__name__}",
                round_id=self.round_id,
                party="coordinator",
            )
        self._check_common_request(request)
        check_ciphertext_vector(
            request.indicator,
            self.layout.delta_prime,
            self.public_key,
            1,
            round_id=self.round_id,
            party="coordinator",
            what="indicator",
        )

    def _check_opt_request(self, request: object) -> None:
        if not isinstance(request, OptGroupQueryRequest):
            raise ProtocolStateError(
                f"expected an OptGroupQueryRequest, got {type(request).__name__}",
                round_id=self.round_id,
                party="coordinator",
            )
        self._check_common_request(request)
        check_ciphertext_vector(
            request.inner_indicator,
            self.inner_length,
            self.public_key,
            1,
            round_id=self.round_id,
            party="coordinator",
            what="inner indicator",
        )
        check_ciphertext_vector(
            request.outer_indicator,
            self.outer_length,
            self.public_key,
            2,
            round_id=self.round_id,
            party="coordinator",
            what="outer indicator",
        )

    @_observed
    def upload_delivered(self, upload: object) -> None:
        """A location-set upload arrived at the LSP."""
        if not isinstance(upload, LocationSetUpload):
            raise InboundValidationError(
                f"expected a LocationSetUpload, got {type(upload).__name__}",
                round_id=self.round_id,
            )
        self.lsp.recv_upload(upload.user_id)
        party = f"user:{upload.user_id}"
        self._member(upload.user_id).advance("upload", party=party)
        check_location_set(
            upload.locations,
            self.layout.d,
            self.space,
            round_id=self.round_id,
            party=party,
        )

    @_observed
    def uploads_complete(self) -> None:
        """Gate before the LSP's Algorithm 2: the round must be whole."""
        self.lsp.ready_to_answer()

    @_observed
    def answer_delivered(self, answer: object) -> None:
        """The encrypted answer arrived at the coordinator."""
        self.coordinator.advance("recv_answer", party="lsp")
        if not isinstance(answer, EncryptedAnswer):
            raise InboundValidationError(
                f"expected an EncryptedAnswer, got {type(answer).__name__}",
                round_id=self.round_id,
                party="lsp",
            )
        check_ciphertext_vector(
            answer.ciphertexts,
            self.answer_m,
            self.public_key,
            self.answer_s,
            round_id=self.round_id,
            party="lsp",
            what="answer",
        )

    @_observed
    def decode_plaintexts(
        self, codec: AnswerCodec, integers: Sequence[int]
    ) -> list[DecodedAnswer]:
        """Range-check the decrypted integers, then decode defensively.

        A structurally invalid plaintext (count header beyond k, nonzero
        padding) means the LSP selected or fabricated garbage; the codec's
        :class:`~repro.errors.EncodingError` is re-raised as an
        :class:`~repro.errors.InboundValidationError` attributed to it.
        """
        self.coordinator.advance("decrypt")
        for value in integers:
            check_plaintext(
                value,
                self.public_key,
                1,
                round_id=self.round_id,
                party="lsp",
            )
        try:
            answers = codec.decode(integers)
        except EncodingError as exc:
            raise InboundValidationError(
                f"answer plaintext does not decode: {exc}",
                round_id=self.round_id,
                party="lsp",
            ) from exc
        for i, answer in enumerate(answers):
            check_finite_point(
                answer.location,
                space=self.space,
                round_id=self.round_id,
                party="lsp",
                what=f"answer[{i}].location",
            )
        return answers

    @_observed
    def broadcast_delivered(self, user: int, message: object) -> None:
        """The plaintext answer broadcast arrived at ``user``."""
        self.coordinator.advance("broadcast")
        self._member(user).advance("recv_broadcast", party="coordinator")
        if not isinstance(message, PlaintextAnswerBroadcast):
            raise InboundValidationError(
                f"expected a PlaintextAnswerBroadcast, got "
                f"{type(message).__name__}",
                round_id=self.round_id,
                party="coordinator",
            )
        if len(message.answers) > self.k:
            raise InboundValidationError(
                f"broadcast carries {len(message.answers)} answers, k={self.k}",
                round_id=self.round_id,
                party="coordinator",
            )

    @_observed
    def finished(self) -> None:
        """Close the round; the coordinator must have decrypted."""
        self.coordinator.advance("finish")


class _NullRoundGuard:
    """The ``guard=None`` path: every hook is a no-op.

    Keeping the runner code branch-free means the default path stays
    byte-for-byte identical to the historical cost accounting (the
    regression tests pin this).
    """

    __slots__ = ()

    def planned(self) -> None: ...

    def position_delivered(self, user: int, message: object) -> None: ...

    def request_delivered(self, request: object) -> None: ...

    def upload_delivered(self, upload: object) -> None: ...

    def uploads_complete(self) -> None: ...

    def answer_delivered(self, answer: object) -> None: ...

    def decode_plaintexts(self, codec, integers):
        return codec.decode(integers)

    def broadcast_delivered(self, user: int, message: object) -> None: ...

    def finished(self) -> None: ...


NULL_ROUND_GUARD = _NullRoundGuard()


@dataclass(frozen=True)
class ProtocolGuard:
    """Session-level hardening configuration.

    Attributes
    ----------
    obs:
        An :class:`~repro.obs.Observability` handle; every round guard
        then counts its rejections into the ``guard.violations`` metric.
        None keeps the hooks silent.
    """

    obs: Observability | None = None

    def begin(
        self,
        *,
        layout: GroupLayout,
        public_key: PaillierPublicKey,
        space: LocationSpace,
        k: int,
        answer_m: int,
        answer_s: int = 1,
        inner_length: int | None = None,
        outer_length: int | None = None,
        round_id: int = 0,
    ) -> RoundGuard:
        """Arm a :class:`RoundGuard` for one protocol round."""
        if self.obs is not None:
            self.obs.count("guard.rounds")
        return RoundGuard(
            layout=layout,
            public_key=public_key,
            space=space,
            k=k,
            answer_m=answer_m,
            answer_s=answer_s,
            inner_length=inner_length,
            outer_length=outer_length,
            round_id=round_id,
            obs=self.obs,
        )


def begin_round(
    guard: ProtocolGuard | None, **context
) -> RoundGuard | _NullRoundGuard:
    """Runner-side hook that arms a round guard, or none.

    With ``guard=None`` the returned object is the shared no-op round
    guard, keeping the historical trusting path intact.
    """
    if guard is None:
        return NULL_ROUND_GUARD
    return guard.begin(**context)
