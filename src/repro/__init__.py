"""repro — a full reproduction of "Privacy Preserving Group Nearest
Neighbor Search" (Wu, Wang, Zhang, Lin, Chen; EDBT 2018).

The package implements the PPGNN protocol family (single-user, group,
optimized, naive) over from-scratch substrates: a generalized Paillier
(Damgård–Jurik) cryptosystem, an R-tree with the MBM group-kNN algorithm,
answer encoding, the partition-parameter solver, and the hypothesis-tested
answer sanitation that defends against full user collusion — plus the
baselines (APNN, IPPF, GLP) the paper evaluates against.

Quick start::

    from repro import LSPServer, PPGNNConfig, run_ppgnn, random_group
    from repro.datasets import load_sequoia
    import numpy as np

    lsp = LSPServer(load_sequoia(10_000))
    group = random_group(8, lsp.space, np.random.default_rng(7))
    result = run_ppgnn(lsp, group, PPGNNConfig(), seed=42)
    print(result.answers)          # the sanitized top-k POIs
    print(result.report.total_comm_bytes)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

from repro.core import (
    LSPServer,
    PPGNNConfig,
    ProtocolResult,
    QuerySession,
    optimal_omega,
    paper_omega,
    random_group,
    run_naive,
    run_ppgnn,
    run_ppgnn_opt,
    run_single_user,
    run_single_user_opt,
)
from repro.errors import (
    ConfigurationError,
    CryptoError,
    EncodingError,
    GuardError,
    InboundValidationError,
    InfeasibleError,
    ProtocolError,
    ProtocolStateError,
    ReproError,
)
from repro.guard import ProtocolGuard

__version__ = "1.0.0"

__all__ = [
    "PPGNNConfig",
    "LSPServer",
    "ProtocolResult",
    "run_ppgnn",
    "run_ppgnn_opt",
    "run_naive",
    "run_single_user",
    "run_single_user_opt",
    "random_group",
    "QuerySession",
    "optimal_omega",
    "paper_omega",
    "ReproError",
    "ConfigurationError",
    "CryptoError",
    "EncodingError",
    "ProtocolError",
    "GuardError",
    "ProtocolStateError",
    "InboundValidationError",
    "InfeasibleError",
    "ProtocolGuard",
    "__version__",
]
