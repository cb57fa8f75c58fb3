"""Scripted malicious parties for exercising :mod:`repro.guard`.

Two adversary shapes, mirroring the protocol's trust boundaries:

:class:`CheatingLSP`
    Wraps an honest :class:`~repro.core.lsp.LSPServer` and tampers with
    the :class:`~repro.protocol.messages.EncryptedAnswer` it returns —
    each named deviation targets one check of the guard's inbound
    validation layer (vector length, ciphertext range, unit membership,
    level tag, plaintext structure).  ``rerandomize`` is the control
    case: by semantic security it changes every ciphertext byte yet must
    decrypt to the identical answer, so a guarded run is *provably
    harmless* rather than detected.

Cheating group members
    Mutators (:func:`nan_location`, :func:`short_set`, ...) for the
    runners' ``tamper=`` hook: each forges one message that a member
    uploads, or the position assignment a member receives, and the
    receiver gets the forgery instead of the honest message.  Only the
    protocol-level guard can catch the deviation.
"""

from __future__ import annotations

import math
import random
from typing import Callable

from repro.core.lsp import LSPServer
from repro.crypto.paillier import Ciphertext
from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.protocol.messages import (
    EncryptedAnswer,
    LocationSetUpload,
    Message,
    PositionAssignment,
)
from repro.protocol.metrics import CostLedger, Mutator


# --------------------------------------------------------------- member side


def _upload_mutator(
    user_id: int, forge: Callable[[LocationSetUpload], LocationSetUpload]
) -> Mutator:
    def mutate(link: tuple[str, str], payload: Message) -> Message | None:
        if isinstance(payload, LocationSetUpload) and payload.user_id == user_id:
            return forge(payload)
        return None

    return mutate


def nan_location(user_id: int) -> Mutator:
    """Member ``user_id`` hides a NaN coordinate in its location set."""

    def forge(upload: LocationSetUpload) -> LocationSetUpload:
        poisoned = (Point(math.nan, 0.5),) + upload.locations[1:]
        return LocationSetUpload(upload.user_id, poisoned)

    return _upload_mutator(user_id, forge)


def outside_location(user_id: int) -> Mutator:
    """Member ``user_id`` uploads a location outside the agreed space."""

    def forge(upload: LocationSetUpload) -> LocationSetUpload:
        poisoned = (Point(2.5, -1.5),) + upload.locations[1:]
        return LocationSetUpload(upload.user_id, poisoned)

    return _upload_mutator(user_id, forge)


def short_set(user_id: int) -> Mutator:
    """Member ``user_id`` pads with fewer dummies than the protocol requires.

    This is the laziness-for-privacy trade the guard must refuse: a short
    set weakens every *other* member's Privacy-I guarantee.
    """

    def forge(upload: LocationSetUpload) -> LocationSetUpload:
        return LocationSetUpload(upload.user_id, upload.locations[:-1])

    return _upload_mutator(user_id, forge)


def duplicate_user_id(user_id: int, victim_id: int = 0) -> Mutator:
    """Member ``user_id`` impersonates ``victim_id`` in its upload."""

    def forge(upload: LocationSetUpload) -> LocationSetUpload:
        return LocationSetUpload(victim_id, upload.locations)

    return _upload_mutator(user_id, forge)


def corrupt_position(user_id: int, position: int = 10**6) -> Mutator:
    """Forge the coordinator's slot assignment to ``user_id`` out of range."""

    def mutate(link: tuple[str, str], payload: Message) -> Message | None:
        if isinstance(payload, PositionAssignment) and link[1] == f"user:{user_id}":
            return PositionAssignment(position)
        return None

    return mutate


# ------------------------------------------------------------------ LSP side

#: The scripted LSP deviations, by name.  All but ``rerandomize`` must be
#: detected by a guarded coordinator; ``rerandomize`` must be harmless.
LSP_DEVIATIONS = (
    "extra_ciphertext",
    "empty_answer",
    "out_of_range_value",
    "non_unit_value",
    "wrong_level",
    "garbage_plaintext",
    "rerandomize",
)


class CheatingLSP:
    """An LSP that answers honestly, then tampers with the answer.

    Delegates all computation to ``inner`` and rewrites the returned
    :class:`~repro.protocol.messages.EncryptedAnswer` according to
    ``deviation`` (one of :data:`LSP_DEVIATIONS`).  Duck-types the
    :class:`~repro.core.lsp.LSPServer` surface the runners touch.
    """

    def __init__(self, inner: LSPServer, deviation: str, seed: int = 0) -> None:
        if deviation not in LSP_DEVIATIONS:
            raise ConfigurationError(
                f"unknown deviation {deviation!r}; known: {list(LSP_DEVIATIONS)}"
            )
        self.inner = inner
        self.deviation = deviation
        self._rng = random.Random(seed)

    @property
    def space(self):
        """The wrapped LSP's data space."""
        return self.inner.space

    @property
    def stats(self):
        """The wrapped LSP's query statistics."""
        return self.inner.stats

    def answer_group_query(self, request, uploads, ledger: CostLedger):
        """Answer honestly via the wrapped LSP, then tamper (level s=1)."""
        answer = self.inner.answer_group_query(request, uploads, ledger)
        return self._tamper(answer, request, s=1)

    def answer_group_query_opt(self, request, uploads, ledger: CostLedger):
        """Answer honestly via the wrapped LSP, then tamper (level s=2)."""
        answer = self.inner.answer_group_query_opt(request, uploads, ledger)
        return self._tamper(answer, request, s=2)

    def _tamper(self, answer: EncryptedAnswer, request, s: int) -> EncryptedAnswer:
        pk = request.public_key
        cts = list(answer.ciphertexts)
        if self.deviation == "extra_ciphertext":
            cts.append(cts[0])
        elif self.deviation == "empty_answer":
            cts = []
        elif self.deviation == "out_of_range_value":
            # Congruent to a valid ciphertext, but not a canonical residue.
            cts[0] = Ciphertext(
                cts[0].value + pk.ciphertext_modulus(s), s, pk
            )
        elif self.deviation == "non_unit_value":
            # gcd(N, N^{s+1}) = N: outside Z*, decryption is undefined.
            cts[0] = Ciphertext(pk.n, s, pk)
        elif self.deviation == "wrong_level":
            cts[0] = Ciphertext(cts[0].value, s + 1, pk)
        elif self.deviation == "garbage_plaintext":
            # A well-formed ciphertext of a structurally impossible answer:
            # its count header claims k + 1 POIs.
            cts[0] = pk.encrypt(request.k + 1, s=s, rng=self._rng)
        elif self.deviation == "rerandomize":
            cts = [pk.rerandomize(c, self._rng) for c in cts]
        return EncryptedAnswer(tuple(cts))
