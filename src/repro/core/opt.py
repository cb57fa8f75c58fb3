"""PPGNN-OPT: the two-phase private selection of Section 6.

Instead of one indicator of length delta', the coordinator sends two small
vectors: ``[v1]`` (eps_1, length ``ceil(delta'/omega)``) selecting the
position *within* a block, and ``[[v2]]`` (eps_2, length ``omega``)
selecting the block.  The LSP selects per-block with ``[v1]``, then selects
across blocks with ``[[v2]]`` by treating each eps_1 ciphertext as an eps_2
plaintext; the coordinator decrypts twice.

The optimal block count minimizes the actual indicator+answer bytes.  With
exact sizes (an eps_2 ciphertext is 1.5x an eps_1 ciphertext, i.e. 3 vs 2
key-size units) the cost in half-keysize units is

    cost(omega) = 3 * omega + 2 * ceil(delta' / omega) + 3 * m,

minimized near ``omega = sqrt(2 * delta' / 3)``.  The paper's analysis
rounds the eps_2 length to 2x, giving ``omega ~ sqrt(delta' / 2)`` — both
are exposed, and :func:`optimal_omega` searches the exact integer optimum
so the implementation is self-consistent.
"""

from __future__ import annotations

import math
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
from repro.partition.solver import solve_partition
from repro.protocol.messages import (
    LocationSetUpload,
    OptGroupQueryRequest,
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


def paper_omega(delta_prime: int) -> int:
    """The paper's closed form: nearest integer to sqrt(delta' / 2)."""
    if delta_prime < 1:
        raise ConfigurationError("delta' must be positive")
    return max(1, round(math.sqrt(delta_prime / 2.0)))


def optimal_omega(delta_prime: int) -> int:
    """The exact integer minimizer of the two-indicator byte cost.

    Cost in half-keysize units: ``3 * omega + 2 * ceil(delta' / omega)``
    (the answer term is constant in omega).  delta' is small, so a direct
    scan is cheap and exact.
    """
    if delta_prime < 1:
        raise ConfigurationError("delta' must be positive")
    best = min(
        range(1, delta_prime + 1),
        key=lambda w: (3 * w + 2 * math.ceil(delta_prime / w), w),
    )
    return best


def split_indicator_index(query_index: int, block_width: int) -> tuple[int, int]:
    """Decompose a flat candidate index into (block, within-block) positions."""
    return query_index // block_width, query_index % block_width


def run_ppgnn_opt(
    lsp: LSPServer,
    locations: Sequence[Point],
    config: PPGNNConfig,
    seed: int = 0,
    omega: int | None = None,
    dummy_generator=None,
    nonce_pool=None,
    tamper: Mutator | None = None,
    guard: ProtocolGuard | None = None,
    obs: Observability | None = None,
) -> ProtocolResult:
    """Execute one PPGNN-OPT round (group sizes n >= 1).

    ``omega`` overrides the block count (the omega-sweep ablation uses it);
    by default the exact integer optimum is chosen.  ``nonce_pool`` (a
    :class:`~repro.crypto.noncepool.NoncePool` under the group key) moves
    the obfuscation exponentiations of *both* indicators offline — the
    inner eps_1 vector and the outer eps_2 vector each consume one pooled
    factor per ciphertext at their level.  ``tamper`` may forge any
    message a receiver gets, as in :func:`repro.core.group.run_ppgnn`;
    None hands every message over untouched.  ``guard`` arms the
    hostile-input defenses of :mod:`repro.guard`; None keeps the
    historical trusting behavior.  ``obs`` traces the round as a
    ``round.ppgnn-opt`` span and publishes the crypto operation counters;
    None keeps the uninstrumented path byte-identical.
    """
    with maybe_span(
        obs, "round.ppgnn-opt", n=len(locations), seed=seed
    ) as round_span:
        result = _run_ppgnn_opt(
            lsp, locations, config, seed, omega, dummy_generator, nonce_pool,
            tamper, guard, obs,
        )
        if round_span is not None:
            publish_round(obs, round_span, result, lsp)
        return result


def _run_ppgnn_opt(
    lsp: LSPServer,
    locations: Sequence[Point],
    config: PPGNNConfig,
    seed: int,
    omega: int | None,
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
    params = solve_partition(n, config.d, config.delta)
    layout = GroupLayout(params)
    codec = AnswerCodec(config.keysize, config.k, lsp.space)

    delta_prime = layout.delta_prime
    block_count = omega if omega is not None else optimal_omega(delta_prime)
    if not 1 <= block_count <= delta_prime:
        raise ConfigurationError(f"omega must be in [1, {delta_prime}]")
    block_width = math.ceil(delta_prime / block_count)
    rg = begin_round(
        guard,
        layout=layout,
        public_key=keypair.public_key,
        space=lsp.space,
        k=config.k,
        answer_m=codec.m,
        answer_s=2,
        inner_length=block_width,
        outer_length=block_count,
    )

    # --- Algorithm 1 with the two small indicators -----------------------
    with ledger.clock(COORDINATOR), maybe_span(obs, "coordinator.encrypt_query"):
        plan = layout.plan_placement(rng)
        block, within = split_indicator_index(plan.query_index, block_width)
        counter = ledger.counter(COORDINATOR)
        if nonce_pool is not None:
            from repro.crypto.noncepool import pooled_indicator

            inner = pooled_indicator(
                nonce_pool, block_width, within, s=1, rng=rng,
                public_key=keypair.public_key,
            )
            outer = pooled_indicator(
                nonce_pool, block_count, block, s=2, rng=rng,
                public_key=keypair.public_key,
            )
            counter.encryptions += block_width + block_count
        else:
            inner = encrypt_indicator(
                keypair.secret_key, block_width, within, s=1, rng=rng, counter=counter
            )
            outer = encrypt_indicator(
                keypair.secret_key, block_count, block, s=2, rng=rng, counter=counter
            )
        request = OptGroupQueryRequest(
            k=config.k,
            public_key=keypair.public_key,
            subgroup_sizes=params.subgroup_sizes,
            segment_sizes=params.segment_sizes,
            inner_indicator=tuple(inner),
            outer_indicator=tuple(outer),
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

    rg.uploads_complete()
    with maybe_span(obs, "lsp.answer") as lsp_span:
        encrypted = lsp.answer_group_query_opt(request, uploads, ledger)
    if lsp_span is not None:
        lsp_span.set(kgnn_queries=lsp.last_stats.kgnn_queries)
    encrypted = send(ledger, LSP, COORDINATOR, encrypted, tamper)
    rg.answer_delivered(encrypted)

    answers = decrypt_answer(
        keypair, codec, encrypted, ledger, nested=True, guard_round=rg, obs=obs
    )
    broadcast = PlaintextAnswerBroadcast(tuple(answers))
    for user in range(1, n):
        delivered = send(ledger, COORDINATOR, f"user:{user}", broadcast, tamper)
        rg.broadcast_delivered(user, delivered)
    rg.finished()

    return ProtocolResult(
        protocol="ppgnn-opt",
        answers=tuple(answers),
        report=ledger.report(),
        delta_prime=delta_prime,
        m=codec.m,
        query_index=plan.query_index,
    )
