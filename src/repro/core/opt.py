"""PPGNN-OPT: the two-phase private selection of Section 6.

Instead of one indicator of length delta', the coordinator sends two small
vectors: ``[v1]`` (eps_1, length ``ceil(delta'/omega)``) selecting the
position *within* a block, and ``[[v2]]`` (eps_2, length ``omega``)
selecting the block.  The LSP selects per-block with ``[v1]``, then selects
across blocks with ``[[v2]]`` by treating each eps_1 ciphertext as an eps_2
plaintext; the coordinator decrypts twice.

The round is PPGNN's, :func:`repro.core.group.run_round`; the two
indicators and the block count omega (by default the exact integer
optimum, :func:`optimal_omega`) come from
:func:`repro.core.group.round_shape`.
"""

from __future__ import annotations

from typing import Sequence

# Resolved here only by LAYER_POINTS in benchmarks/e2e/spans.py, which
# wraps each layer at every module it lists.
from repro.core.common import build_location_set, decrypt_answer  # noqa: F401
from repro.core.config import PPGNNConfig
from repro.core.group import optimal_omega, paper_omega, run_round
from repro.core.lsp import LSPServer
from repro.core.result import ProtocolResult
from repro.crypto.homomorphic import encrypt_indicator  # noqa: F401
from repro.geometry.point import Point
from repro.guard.guard import ProtocolGuard
from repro.obs import Observability
from repro.partition.solver import solve_partition  # noqa: F401
from repro.protocol.metrics import Mutator

__all__ = ["optimal_omega", "paper_omega", "run_ppgnn_opt"]


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
    """Execute one PPGNN-OPT round (group sizes n >= 1); see :func:`run_round`.

    ``omega`` overrides the block count (the omega-sweep ablation uses it);
    it must be an integer in [1, delta'].  ``nonce_pool`` moves the
    obfuscation exponentiations of *both* indicators offline — the inner
    eps_1 vector and the outer eps_2 vector each consume one pooled factor
    per ciphertext at their level.  The round is traced as a
    ``round.ppgnn-opt`` span.
    """
    return run_round(
        "ppgnn-opt", lsp, locations, config, seed=seed, omega=omega,
        dummy_generator=dummy_generator, nonce_pool=nonce_pool,
        tamper=tamper, guard=guard, obs=obs,
    )
