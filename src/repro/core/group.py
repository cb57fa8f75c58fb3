"""One round for the group protocols: PPGNN, PPGNN-OPT and Naive.

PPGNN (Section 4.2, Algorithms 1 and 2), PPGNN-OPT (Section 6) and the
Naive baseline (Section 4, opening) run one round, :func:`run_round`.
What differs between them is data, a :class:`RoundShape` that
:func:`round_shape` works out before the round starts:

- *PPGNN* solves the partition parameters and encrypts one delta'-long
  eps_1 indicator.  ``config.sanitize = False`` gives PPGNN-NAS
  (Section 8.3.2).
- *PPGNN-OPT* encrypts two small indicators: a ``ceil(delta'/omega)``-long
  eps_1 vector selecting the position *within* a block and an omega-long
  eps_2 vector selecting the block.  The LSP selects per block, then
  across blocks, and the coordinator decrypts twice.
- *Naive* is PPGNN over a degenerate partition (:func:`naive_partition`):
  one subgroup and delta one-slot segments, so every user pads its
  location set to delta.

A round has three steps:

1. *Query generation* (Algorithm 1).  The coordinator u_c solves the
   partition parameters (offline-precomputed, per the paper), draws the
   placement plan, broadcasts ``pos_j`` to each subgroup, encrypts the
   indicators over the delta' candidate positions, and sends the query to
   LSP.  Every user independently builds its location set with the real
   location at the broadcast position and uploads it.
2. *Query processing* (Algorithm 2).  LSP enumerates the candidate-query
   list, answers each with the kGNN black box, sanitizes each answer when
   Privacy IV is on, and privately selects the real query's ciphertext.
3. *Answer decryption.*  The coordinator decrypts, decodes, and broadcasts
   the plaintext answer to the other n - 1 users.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
from repro.crypto import noncepool
from repro.crypto.homomorphic import encrypt_indicator
from repro.encoding.answers import AnswerCodec
from repro.errors import ConfigurationError, positive_int
from repro.geometry.point import Point
from repro.geometry.space import LocationSpace
from repro.guard.guard import ProtocolGuard, begin_round
from repro.obs import Observability, maybe_span
from repro.partition.layout import GroupLayout
from repro.partition.solver import PartitionParameters, solve_partition
from repro.protocol.messages import (
    GroupQueryRequest,
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

#: The group protocols, each round named by one of these.
PROTOCOLS = ("ppgnn", "ppgnn-opt", "naive")


def random_group(
    n: int, space: LocationSpace, rng: np.random.Generator
) -> list[Point]:
    """n user locations drawn uniformly from the space (the paper's workload)."""
    if n < 1:
        raise ConfigurationError("a group needs at least one user")
    return space.sample_points(n, rng)


def paper_omega(delta_prime: int) -> int:
    """The paper's closed form: nearest integer to sqrt(delta' / 2)."""
    if delta_prime < 1:
        raise ConfigurationError("delta' must be positive")
    return max(1, round(math.sqrt(delta_prime / 2.0)))


def optimal_omega(delta_prime: int) -> int:
    """The exact integer minimizer of the two-indicator byte cost.

    With exact sizes (an eps_2 ciphertext is 1.5x an eps_1 ciphertext,
    i.e. 3 vs 2 key-size units) the cost in half-keysize units is
    ``3 * omega + 2 * ceil(delta' / omega) + 3 * m``, minimized near
    ``omega = sqrt(2 * delta' / 3)``; the answer term is constant in omega.
    The paper rounds the eps_2 length to 2x, giving :func:`paper_omega`.
    delta' is small, so a direct scan is cheap and exact.
    """
    if delta_prime < 1:
        raise ConfigurationError("delta' must be positive")
    best = min(
        range(1, delta_prime + 1),
        key=lambda w: (3 * w + 2 * math.ceil(delta_prime / w), w),
    )
    return best


def naive_partition(n: int, delta: int) -> PartitionParameters:
    """One subgroup, delta singleton segments: the aligned-candidates layout."""
    return PartitionParameters(
        subgroup_sizes=(n,),
        segment_sizes=(1,) * delta,
        delta_prime=delta,
    )


@dataclass(frozen=True, slots=True)
class RoundShape:
    """What one round lays out and encrypts, worked out before it runs.

    ``partition`` lays out the candidate queries.  ``indicators`` holds
    the (length, level) of each indicator the coordinator encrypts, in
    encryption order: one delta'-long eps_1 indicator, or PPGNN-OPT's
    ``ceil(delta'/omega)``-long eps_1 indicator and omega-long eps_2 one.
    """

    partition: PartitionParameters
    indicators: tuple[tuple[int, int], ...]

    @property
    def nested(self) -> bool:
        """Two-phase selection: the answer comes back as eps_2 ciphertexts."""
        return len(self.indicators) == 2

    def hot_slots(self, query_index: int) -> tuple[int, ...]:
        """The slot each indicator sets to 1 for the real query's candidate."""
        if not self.nested:
            return (query_index,)
        block, within = divmod(query_index, self.indicators[0][0])
        return within, block


def round_shape(
    protocol: str, n: int, config: PPGNNConfig, omega: int | None = None
) -> RoundShape:
    """The shape of one ``protocol`` round for ``n`` users under ``config``.

    The partition is solved (Eqns 7-10), or Naive's.  ``omega`` overrides
    PPGNN-OPT's block count, :func:`optimal_omega` by default; it must be
    an integer in [1, delta'] (a numpy integer is taken as ``int``), and
    the other protocols ignore it.  Anything else raises
    :class:`ConfigurationError`.
    """
    if protocol not in PROTOCOLS:
        raise ConfigurationError(
            f"unknown protocol {protocol!r}; known: {list(PROTOCOLS)}"
        )
    if protocol == "naive":
        partition = naive_partition(n, config.delta)
    else:
        partition = solve_partition(n, config.d, config.delta)
    delta_prime = partition.delta_prime
    if protocol != "ppgnn-opt":
        return RoundShape(partition, ((delta_prime, 1),))
    if omega is None:
        omega = optimal_omega(delta_prime)
    else:
        omega = positive_int(omega, "omega")
        if omega > delta_prime:
            raise ConfigurationError(f"omega must be in [1, {delta_prime}]")
    width = math.ceil(delta_prime / omega)
    return RoundShape(partition, ((width, 1), (omega, 2)))


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
    """One PPGNN round (PPGNN-NAS without sanitation); see :func:`run_round`."""
    return run_round(
        "ppgnn", lsp, locations, config, seed=seed,
        dummy_generator=dummy_generator, nonce_pool=nonce_pool,
        tamper=tamper, guard=guard, obs=obs,
    )


def run_round(
    protocol: str,
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
    """Execute one full round of ``protocol`` and return the answer plus cost report.

    ``protocol`` is one of :data:`PROTOCOLS`, and ``omega`` overrides
    PPGNN-OPT's block count (:func:`round_shape`).  ``dummy_generator``
    optionally overrides the uniform dummy model with a strategy from
    :mod:`repro.dummies`.  ``nonce_pool`` (a
    :class:`~repro.crypto.noncepool.NoncePool` under the group key) moves
    the obfuscation exponentiations of every indicator offline, one pooled
    factor per ciphertext at its level — the mobile-coordinator
    optimization; the measured coordinator time then covers only the
    online phase.  ``tamper`` sees every message as it is handed over and
    may return a forgery for the receiver (see
    :func:`repro.protocol.metrics.send`); None hands every message over
    untouched.  ``guard`` arms the hostile-input defenses of
    :mod:`repro.guard` (state machines, inbound validation); None keeps
    the historical trusting behavior.  ``obs`` traces the round as a
    ``round.<protocol>`` span with per-phase children and publishes the
    crypto operation counters; None keeps the uninstrumented path
    byte-identical.
    """
    with maybe_span(
        obs, f"round.{protocol}", n=len(locations), seed=seed
    ) as round_span:
        result = _run_round(
            protocol, lsp, locations, config, seed, omega, dummy_generator,
            nonce_pool, tamper, guard, obs,
        )
        if round_span is not None:
            publish_round(obs, round_span, result, lsp)
        return result


def _run_round(
    protocol: str,
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
    keypair = group_keypair(config)  # offline key setup
    shape = round_shape(protocol, n, config, omega)  # offline precomputation
    params = shape.partition
    layout = GroupLayout(params)
    codec = AnswerCodec(config.keysize, config.k, lsp.space)
    rg = begin_round(
        guard,
        layout=layout,
        shape=shape,
        public_key=keypair.public_key,
        space=lsp.space,
        k=config.k,
        answer_m=codec.m,
    )

    # --- Algorithm 1: coordinator side -----------------------------------
    with ledger.clock(COORDINATOR), maybe_span(obs, "coordinator.encrypt_query"):
        plan = layout.plan_placement(rng)
        counter = ledger.counter(COORDINATOR)
        indicators = []
        for (length, level), hot in zip(
            shape.indicators, shape.hot_slots(plan.query_index)
        ):
            if nonce_pool is not None:
                # Called through its module, where LAYER_POINTS of
                # benchmarks/e2e/spans.py wraps it.
                vector = noncepool.pooled_indicator(
                    nonce_pool, length, hot, s=level, rng=rng,
                    public_key=keypair.public_key,
                )
                counter.encryptions += length
            else:
                vector = encrypt_indicator(
                    keypair.secret_key, length, hot, s=level, rng=rng,
                    counter=counter,
                )
            indicators.append(tuple(vector))
        # Both request types carry their indicators between the partition
        # and theta0.
        request = (OptGroupQueryRequest if shape.nested else GroupQueryRequest)(
            config.k,
            keypair.public_key,
            params.subgroup_sizes,
            params.segment_sizes,
            *indicators,
            config.theta0 if config.sanitize else None,
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
                    real, positions[i], layout.d, lsp.space, nprng, dummy_generator
                )
                upload = LocationSetUpload(i, location_set)
            delivered = send(ledger, f"user:{i}", LSP, upload, tamper)
            rg.upload_delivered(delivered)
            uploads.append(delivered)

    # --- Algorithm 2: LSP (clocked inside the handler) -------------------
    rg.uploads_complete()
    answer = lsp.answer_group_query_opt if shape.nested else lsp.answer_group_query
    with maybe_span(obs, "lsp.answer") as lsp_span:
        encrypted = answer(request, uploads, ledger)
    if lsp_span is not None:
        lsp_span.set(kgnn_queries=lsp.last_stats.kgnn_queries)
    encrypted = send(ledger, LSP, COORDINATOR, encrypted, tamper)
    rg.answer_delivered(encrypted)

    # --- Answer decryption and broadcast ----------------------------------
    answers = decrypt_answer(
        keypair, codec, encrypted, ledger, nested=shape.nested, guard_round=rg,
        obs=obs,
    )
    broadcast = PlaintextAnswerBroadcast(tuple(answers))
    for user in range(1, n):
        delivered = send(ledger, COORDINATOR, f"user:{user}", broadcast, tamper)
        rg.broadcast_delivered(user, delivered)
    rg.finished()

    return ProtocolResult(
        protocol="ppgnn-nas" if protocol == "ppgnn" and not config.sanitize else protocol,
        answers=tuple(answers),
        report=ledger.report(),
        delta_prime=layout.delta_prime,
        m=codec.m,
        query_index=plan.query_index,
    )
