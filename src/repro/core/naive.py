"""The Naive baseline from the opening of Section 4.

Every user generates a location set of length *delta* (not d) and all users
place their real locations at the same slot; the LSP forms exactly delta
candidate queries by aligning positions across the n sets.  Structurally
this is the degenerate partition ``alpha = 1`` (one subgroup) with delta
segments of size 1 (:func:`naive_partition`) — each segment contributes
exactly one candidate and the shared relative position is forced to 0 — so
Naive runs PPGNN's round, :func:`repro.core.group.run_round`, over that
partition, inheriting all privacy behaviour while paying the extra
``(delta - d) * n`` dummy generation and transmission the paper criticizes.
"""

from __future__ import annotations

from typing import Sequence

# Resolved here only by LAYER_POINTS in benchmarks/e2e/spans.py, which
# wraps each layer at every module it lists.
from repro.core.common import build_location_set, decrypt_answer  # noqa: F401
from repro.core.config import PPGNNConfig
from repro.core.group import naive_partition, run_round
from repro.core.lsp import LSPServer
from repro.core.result import ProtocolResult
from repro.crypto.homomorphic import encrypt_indicator  # noqa: F401
from repro.geometry.point import Point
from repro.guard.guard import ProtocolGuard
from repro.obs import Observability
from repro.protocol.metrics import Mutator

__all__ = ["naive_partition", "run_naive"]


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
    """Execute one Naive-solution round; see :func:`run_round`.

    ``nonce_pool`` moves the delta-length indicator's obfuscation
    exponentiations offline.  The round is traced as a ``round.naive``
    span.
    """
    return run_round(
        "naive", lsp, locations, config, seed=seed,
        dummy_generator=dummy_generator, nonce_pool=nonce_pool,
        tamper=tamper, guard=guard, obs=obs,
    )
