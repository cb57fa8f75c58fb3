"""The single-user protocol of Section 3 (plain and OPT variants).

With n = 1 there is no Privacy IV and ``delta = d``: the user hides the
real location among d - 1 dummies, sends the location set together with an
encrypted indicator, and the LSP answers a plaintext kNN query per location
before privately selecting the real one.  ``run_single_user`` implements
the plain protocol; ``run_single_user_opt`` applies the Section 6 two-phase
selection to the same flow (the n = 1 series of Figure 5).  Both run one
body, whose indicators are those of a one-user group round
(:func:`repro.core.group.round_shape`, where delta' = d).
"""

from __future__ import annotations

from repro.core.common import (
    build_location_set,
    decrypt_answer,
    derive_rngs,
    group_keypair,
)
from repro.core.config import PPGNNConfig
from repro.core.group import round_shape
from repro.core.lsp import LSPServer
from repro.core.result import ProtocolResult
from repro.crypto.homomorphic import encrypt_indicator
from repro.encoding.answers import AnswerCodec
from repro.geometry.point import Point
from repro.protocol.messages import OptSingleQueryRequest, SingleQueryRequest
from repro.protocol.metrics import COORDINATOR, LSP, CostLedger


def run_single_user(
    lsp: LSPServer,
    location: Point,
    config: PPGNNConfig,
    seed: int = 0,
    dummy_generator=None,
) -> ProtocolResult:
    """One round of the Section 3.2 protocol."""
    return _run_single("ppgnn", lsp, location, config, seed, None, dummy_generator)


def run_single_user_opt(
    lsp: LSPServer,
    location: Point,
    config: PPGNNConfig,
    seed: int = 0,
    omega: int | None = None,
    dummy_generator=None,
) -> ProtocolResult:
    """One round of the single-user protocol with two-phase selection.

    ``omega`` overrides the block count; it must be an integer in [1, d].
    """
    return _run_single(
        "ppgnn-opt", lsp, location, config, seed, omega, dummy_generator
    )


def _run_single(
    protocol: str,
    lsp: LSPServer,
    location: Point,
    config: PPGNNConfig,
    seed: int,
    omega: int | None,
    dummy_generator,
) -> ProtocolResult:
    config = config.for_single_user()
    ledger = CostLedger()
    rng, nprng = derive_rngs(seed)
    keypair = group_keypair(config)
    shape = round_shape(protocol, 1, config, omega)
    codec = AnswerCodec(config.keysize, config.k, lsp.space)

    with ledger.clock(COORDINATOR):
        position = rng.randrange(config.d)
        location_set = build_location_set(
            location, position, config.d, lsp.space, nprng, dummy_generator
        )
        counter = ledger.counter(COORDINATOR)
        indicators = [
            tuple(
                encrypt_indicator(
                    keypair.secret_key, length, hot, s=level, rng=rng, counter=counter
                )
            )
            for (length, level), hot in zip(shape.indicators, shape.hot_slots(position))
        ]
        # Both request types carry their indicators after the location set.
        request = (OptSingleQueryRequest if shape.nested else SingleQueryRequest)(
            config.k, keypair.public_key, location_set, *indicators
        )
    ledger.record(COORDINATOR, LSP, request)

    answer = lsp.answer_single_query_opt if shape.nested else lsp.answer_single_query
    encrypted = answer(request, ledger)
    ledger.record(LSP, COORDINATOR, encrypted)

    answers = decrypt_answer(keypair, codec, encrypted, ledger, nested=shape.nested)
    return ProtocolResult(
        protocol="ppgnn-single-opt" if shape.nested else "ppgnn-single",
        answers=tuple(answers),
        report=ledger.report(),
        delta_prime=config.d,
        m=codec.m,
        query_index=position,
    )
