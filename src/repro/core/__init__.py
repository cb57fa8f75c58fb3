"""The paper's contribution: the PPGNN protocol family.

Public entry points:

- :func:`~repro.core.single.run_single_user` / ``run_single_user_opt`` —
  the n = 1 protocol of Section 3,
- :func:`~repro.core.group.run_ppgnn` — the group protocol of Section 4
  with the Section 5 answer sanitation (PPGNN; ``sanitize=False`` gives
  PPGNN-NAS),
- :func:`~repro.core.opt.run_ppgnn_opt` — the two-phase optimization of
  Section 6 (PPGNN-OPT),
- :func:`~repro.core.naive.run_naive` — the Naive baseline of Section 4
  (these three run one round, :func:`~repro.core.group.run_round`, whose
  differences :func:`~repro.core.group.round_shape` works out),
- :class:`~repro.core.lsp.LSPServer` — the service provider,
- :class:`~repro.core.config.PPGNNConfig` — all privacy/system parameters.
"""

from repro.core.config import PPGNNConfig
from repro.core.group import optimal_omega, paper_omega, random_group, run_ppgnn
from repro.core.lsp import LSPServer
from repro.core.naive import run_naive
from repro.core.opt import run_ppgnn_opt
from repro.core.result import ProtocolResult
from repro.core.sanitize import AnswerSanitizer, SanitationOutcome
from repro.core.session import QuerySession, SessionTotals
from repro.core.single import run_single_user, run_single_user_opt

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
    "optimal_omega",
    "paper_omega",
    "AnswerSanitizer",
    "SanitationOutcome",
    "QuerySession",
    "SessionTotals",
]
