"""The single-user protocol of Section 3 (plain and OPT variants).

With n = 1 there is no Privacy IV and ``delta = d``: the user hides the
real location among d - 1 dummies, sends the location set together with an
encrypted indicator, and the LSP answers a plaintext kNN query per location
before privately selecting the real one.  ``run_single_user`` implements
the plain protocol; ``run_single_user_opt`` applies the Section 6 two-phase
selection to the same flow (the n = 1 series of Figure 5).
"""

from __future__ import annotations

import math

from repro.core.common import (
    build_location_set,
    decrypt_answer,
    derive_rngs,
    group_keypair,
)
from repro.core.config import PPGNNConfig
from repro.core.lsp import LSPServer
from repro.core.opt import optimal_omega, split_indicator_index
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
    config = config.for_single_user()
    ledger = CostLedger()
    rng, nprng = derive_rngs(seed)
    keypair = group_keypair(config)
    codec = AnswerCodec(config.keysize, config.k, lsp.space)

    with ledger.clock(COORDINATOR):
        position = rng.randrange(config.d)
        location_set = build_location_set(
            location, position, config.d, lsp.space, nprng, dummy_generator
        )
        indicator = encrypt_indicator(
            keypair.secret_key,
            config.d,
            position,
            rng=rng,
            counter=ledger.counter(COORDINATOR),
        )
        request = SingleQueryRequest(
            k=config.k,
            public_key=keypair.public_key,
            locations=location_set,
            indicator=tuple(indicator),
        )
    ledger.record(COORDINATOR, LSP, request)

    encrypted = lsp.answer_single_query(request, ledger)
    ledger.record(LSP, COORDINATOR, encrypted)

    answers = decrypt_answer(keypair, codec, encrypted, ledger)
    return ProtocolResult(
        protocol="ppgnn-single",
        answers=tuple(answers),
        report=ledger.report(),
        delta_prime=config.d,
        m=codec.m,
        query_index=position,
    )


def run_single_user_opt(
    lsp: LSPServer,
    location: Point,
    config: PPGNNConfig,
    seed: int = 0,
    omega: int | None = None,
    dummy_generator=None,
) -> ProtocolResult:
    """One round of the single-user protocol with two-phase selection."""
    config = config.for_single_user()
    ledger = CostLedger()
    rng, nprng = derive_rngs(seed)
    keypair = group_keypair(config)
    codec = AnswerCodec(config.keysize, config.k, lsp.space)

    block_count = omega if omega is not None else optimal_omega(config.d)
    block_width = math.ceil(config.d / block_count)

    with ledger.clock(COORDINATOR):
        position = rng.randrange(config.d)
        location_set = build_location_set(
            location, position, config.d, lsp.space, nprng, dummy_generator
        )
        block, within = split_indicator_index(position, block_width)
        counter = ledger.counter(COORDINATOR)
        inner = encrypt_indicator(
            keypair.secret_key, block_width, within, s=1, rng=rng, counter=counter
        )
        outer = encrypt_indicator(
            keypair.secret_key, block_count, block, s=2, rng=rng, counter=counter
        )
        request = OptSingleQueryRequest(
            k=config.k,
            public_key=keypair.public_key,
            locations=location_set,
            inner_indicator=tuple(inner),
            outer_indicator=tuple(outer),
        )
    ledger.record(COORDINATOR, LSP, request)

    encrypted = lsp.answer_single_query_opt(request, ledger)
    ledger.record(LSP, COORDINATOR, encrypted)

    answers = decrypt_answer(keypair, codec, encrypted, ledger, nested=True)
    return ProtocolResult(
        protocol="ppgnn-single-opt",
        answers=tuple(answers),
        report=ledger.report(),
        delta_prime=config.d,
        m=codec.m,
        query_index=position,
    )
