"""The PPGNN group protocol (Section 4.2, Algorithms 1 and 2).

One function, :func:`run_ppgnn`, simulates a full round:

1. *Query generation* (Algorithm 1).  The coordinator u_c solves the
   partition parameters (offline-precomputed, per the paper), draws the
   placement plan, broadcasts ``pos_j`` to each subgroup, encrypts the
   indicator vector over the delta' candidate positions, and sends the
   query to LSP.  Every user independently builds its length-d location set
   with the real location at the broadcast position and uploads it.
2. *Query processing* (Algorithm 2).  LSP enumerates the candidate-query
   list, answers each with the kGNN black box, sanitizes each answer when
   Privacy IV is on, and privately selects the real query's ciphertext.
3. *Answer decryption.*  The coordinator decrypts, decodes, and broadcasts
   the plaintext answer to the other n - 1 users.

Setting ``config.sanitize = False`` yields PPGNN-NAS (Section 8.3.2).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

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
from repro.geometry.space import LocationSpace
from repro.guard.guard import ProtocolGuard, begin_round
from repro.obs import Observability, maybe_span
from repro.partition.layout import GroupLayout
from repro.partition.solver import solve_partition
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


def random_group(
    n: int, space: LocationSpace, rng: np.random.Generator
) -> list[Point]:
    """n user locations drawn uniformly from the space (the paper's workload)."""
    if n < 1:
        raise ConfigurationError("a group needs at least one user")
    return space.sample_points(n, rng)


def run_ppgnn(
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
    """Execute one full PPGNN round and return the answer plus cost report.

    ``dummy_generator`` optionally overrides the uniform dummy model with a
    strategy from :mod:`repro.dummies`.  ``nonce_pool`` (a
    :class:`~repro.crypto.noncepool.NoncePool` under the group key) moves
    the indicator encryption's obfuscation exponentiations offline — the
    mobile-coordinator optimization; the measured coordinator time then
    covers only the online phase.  ``tamper`` sees every message as it is
    handed over and may return a forgery for the receiver (see
    :func:`repro.protocol.metrics.send`); None hands every message over
    untouched.  ``guard`` arms the hostile-input defenses of
    :mod:`repro.guard` (state machines, inbound validation); None keeps
    the historical trusting behavior.  ``obs`` traces the round as a
    ``round.ppgnn`` span with per-phase children and publishes the crypto
    operation counters; None keeps the uninstrumented path byte-identical.
    """
    with maybe_span(obs, "round.ppgnn", n=len(locations), seed=seed) as round_span:
        result = _run_ppgnn(
            lsp, locations, config, seed, dummy_generator, nonce_pool,
            tamper, guard, obs,
        )
        if round_span is not None:
            publish_round(obs, round_span, result, lsp)
        return result


def _run_ppgnn(
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
    keypair = group_keypair(config)  # offline key setup
    params = solve_partition(n, config.d, config.delta)  # offline precomputation
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

    # --- Algorithm 1: coordinator side -----------------------------------
    with ledger.clock(COORDINATOR), maybe_span(obs, "coordinator.encrypt_query"):
        plan = layout.plan_placement(rng)
        if nonce_pool is not None:
            from repro.crypto.noncepool import pooled_indicator

            indicator = pooled_indicator(
                nonce_pool,
                layout.delta_prime,
                plan.query_index,
                rng=rng,
                public_key=keypair.public_key,
            )
            ledger.counter(COORDINATOR).encryptions += layout.delta_prime
        else:
            indicator = encrypt_indicator(
                keypair.secret_key,
                layout.delta_prime,
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
    positions = {}
    for subgroup, position in enumerate(plan.absolute_positions):
        message = PositionAssignment(position)
        for user in layout.users_of_subgroup(subgroup):
            delivered = send(ledger, COORDINATOR, f"user:{user}", message, tamper)
            rg.position_delivered(user, delivered)
            positions[user] = delivered.position
    request = send(ledger, COORDINATOR, LSP, request, tamper)
    rg.request_delivered(request)

    # --- Algorithm 1: every user uploads its location set ----------------
    uploads = []
    with maybe_span(obs, "uploads", users=n):
        for i, real in enumerate(locations):
            with ledger.clock(USER):
                location_set = build_location_set(
                    real, positions[i], config.d, lsp.space, nprng, dummy_generator
                )
                upload = LocationSetUpload(i, location_set)
            delivered = send(ledger, f"user:{i}", LSP, upload, tamper)
            rg.upload_delivered(delivered)
            uploads.append(delivered)

    # --- Algorithm 2: LSP (clocked inside the handler) -------------------
    rg.uploads_complete()
    with maybe_span(obs, "lsp.answer") as lsp_span:
        encrypted = lsp.answer_group_query(request, uploads, ledger)
    if lsp_span is not None:
        lsp_span.set(kgnn_queries=lsp.last_stats.kgnn_queries)
    encrypted = send(ledger, LSP, COORDINATOR, encrypted, tamper)
    rg.answer_delivered(encrypted)

    # --- Answer decryption and broadcast ----------------------------------
    answers = decrypt_answer(
        keypair, codec, encrypted, ledger, guard_round=rg, obs=obs
    )
    broadcast = PlaintextAnswerBroadcast(tuple(answers))
    for user in range(1, n):
        delivered = send(ledger, COORDINATOR, f"user:{user}", broadcast, tamper)
        rg.broadcast_delivered(user, delivered)
    rg.finished()

    return ProtocolResult(
        protocol="ppgnn" if config.sanitize else "ppgnn-nas",
        answers=tuple(answers),
        report=ledger.report(),
        delta_prime=layout.delta_prime,
        m=codec.m,
        query_index=plan.query_index,
    )
