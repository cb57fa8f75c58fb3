"""The Naive baseline from the opening of Section 4.

Every user generates a location set of length *delta* (not d) and all users
place their real locations at the same slot; the LSP forms exactly delta
candidate queries by aligning positions across the n sets.  Structurally
this is the degenerate partition ``alpha = 1`` (one subgroup) with delta
segments of size 1 — each segment contributes exactly one candidate and the
shared relative position is forced to 0 — so the implementation reuses the
group machinery with that hand-built partition, inheriting all privacy
behaviour while paying the extra ``(delta - d) * n`` dummy generation and
transmission the paper criticizes.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.common import (
    build_location_set,
    decrypt_answer,
    derive_rngs,
    group_keypair,
    publish_round,
)
from repro.core.config import PPGNNConfig
from repro.core.lsp import LSPServer
from repro.core.result import ProtocolResult
from repro.crypto.homomorphic import encrypt_indicator
from repro.encoding.answers import AnswerCodec
from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.guard.guard import ProtocolGuard, begin_round
from repro.obs import Observability, maybe_span
from repro.partition.layout import GroupLayout
from repro.partition.solver import PartitionParameters
from repro.protocol.messages import (
    GroupQueryRequest,
    LocationSetUpload,
    PlaintextAnswerBroadcast,
    PositionAssignment,
)
from repro.protocol.metrics import (
    COORDINATOR,
    LSP,
    USER,
    CostLedger,
    Mutator,
    send,
)


def naive_partition(n: int, delta: int) -> PartitionParameters:
    """One subgroup, delta singleton segments: the aligned-candidates layout."""
    return PartitionParameters(
        subgroup_sizes=(n,),
        segment_sizes=(1,) * delta,
        delta_prime=delta,
    )


def run_naive(
    lsp: LSPServer,
    locations: Sequence[Point],
    config: PPGNNConfig,
    seed: int = 0,
    dummy_generator=None,
    nonce_pool=None,
    tamper: Mutator | None = None,
    guard: ProtocolGuard | None = None,
    obs: Observability | None = None,
) -> ProtocolResult:
    """Execute one Naive-solution round.

    ``nonce_pool`` moves the delta-length indicator's obfuscation
    exponentiations offline, exactly as in :func:`repro.core.group
    .run_ppgnn`.  ``tamper`` may forge any message a receiver gets, as
    there; None hands every message over untouched.  ``guard`` arms the
    hostile-input defenses of :mod:`repro.guard`; None keeps the
    historical trusting behavior.  ``obs`` traces the round as a
    ``round.naive`` span and publishes the crypto operation counters;
    None keeps the uninstrumented path byte-identical.
    """
    with maybe_span(obs, "round.naive", n=len(locations), seed=seed) as round_span:
        result = _run_naive(
            lsp, locations, config, seed, dummy_generator, nonce_pool,
            tamper, guard, obs,
        )
        if round_span is not None:
            publish_round(obs, round_span, result, lsp)
        return result


def _run_naive(
    lsp: LSPServer,
    locations: Sequence[Point],
    config: PPGNNConfig,
    seed: int,
    dummy_generator,
    nonce_pool,
    tamper: Mutator | None,
    guard: ProtocolGuard | None,
    obs: Observability | None,
) -> ProtocolResult:
    n = len(locations)
    if n < 1:
        raise ConfigurationError("a group needs at least one user")
    ledger = CostLedger()
    rng, nprng = derive_rngs(seed)
    keypair = group_keypair(config)
    params = naive_partition(n, config.delta)
    layout = GroupLayout(params)
    codec = AnswerCodec(config.keysize, config.k, lsp.space)
    rg = begin_round(
        guard,
        layout=layout,
        public_key=keypair.public_key,
        space=lsp.space,
        k=config.k,
        answer_m=codec.m,
    )

    with ledger.clock(COORDINATOR), maybe_span(obs, "coordinator.encrypt_query"):
        plan = layout.plan_placement(rng)  # uniform over the delta slots
        if nonce_pool is not None:
            from repro.crypto.noncepool import pooled_indicator

            indicator = pooled_indicator(
                nonce_pool,
                config.delta,
                plan.query_index,
                rng=rng,
                public_key=keypair.public_key,
            )
            ledger.counter(COORDINATOR).encryptions += config.delta
        else:
            indicator = encrypt_indicator(
                keypair.secret_key,
                config.delta,
                plan.query_index,
                rng=rng,
                counter=ledger.counter(COORDINATOR),
            )
        request = GroupQueryRequest(
            k=config.k,
            public_key=keypair.public_key,
            subgroup_sizes=params.subgroup_sizes,
            segment_sizes=params.segment_sizes,
            indicator=tuple(indicator),
            theta0=config.theta0 if config.sanitize else None,
        )
    rg.planned()
    position = plan.absolute_positions[0]
    message = PositionAssignment(position)
    positions = {}
    for user in range(n):
        delivered = send(ledger, COORDINATOR, f"user:{user}", message, tamper)
        rg.position_delivered(user, delivered)
        positions[user] = delivered.position
    request = send(ledger, COORDINATOR, LSP, request, tamper)
    rg.request_delivered(request)

    uploads = []
    with maybe_span(obs, "uploads", users=n):
        for i, real in enumerate(locations):
            with ledger.clock(USER):
                # The naive cost driver: every user pads to delta locations.
                location_set = build_location_set(
                    real, positions[i], config.delta, lsp.space, nprng,
                    dummy_generator,
                )
                upload = LocationSetUpload(i, location_set)
            delivered = send(ledger, f"user:{i}", LSP, upload, tamper)
            rg.upload_delivered(delivered)
            uploads.append(delivered)

    rg.uploads_complete()
    with maybe_span(obs, "lsp.answer") as lsp_span:
        encrypted = lsp.answer_group_query(request, uploads, ledger)
    if lsp_span is not None:
        lsp_span.set(kgnn_queries=lsp.last_stats.kgnn_queries)
    encrypted = send(ledger, LSP, COORDINATOR, encrypted, tamper)
    rg.answer_delivered(encrypted)

    answers = decrypt_answer(
        keypair, codec, encrypted, ledger, guard_round=rg, obs=obs
    )
    broadcast = PlaintextAnswerBroadcast(tuple(answers))
    for user in range(1, n):
        delivered = send(ledger, COORDINATOR, f"user:{user}", broadcast, tamper)
        rg.broadcast_delivered(user, delivered)
    rg.finished()

    return ProtocolResult(
        protocol="naive",
        answers=tuple(answers),
        report=ledger.report(),
        delta_prime=config.delta,
        m=codec.m,
        query_index=plan.query_index,
    )
