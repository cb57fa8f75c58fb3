"""Multi-query sessions: amortized setup and aggregated accounting.

A real deployment does not regenerate keys or re-solve the partition
parameters per query — a group establishes them once (the paper treats
both as offline work) and then issues many queries.  :class:`QuerySession`
packages that lifecycle: one key pair, one configuration, per-query seeds
derived from a session seed, and a running total of the cost reports —
the shape a downstream application would actually embed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.core.config import PPGNNConfig
from repro.core.group import run_ppgnn
from repro.core.lsp import LSPServer
from repro.core.naive import run_naive
from repro.core.opt import run_ppgnn_opt
from repro.core.result import ProtocolResult
from repro.crypto.noncepool import NoncePool
from repro.errors import ConfigurationError, positive_int
from repro.geometry.point import Point
from repro.guard.guard import ProtocolGuard
from repro.obs import Observability, maybe_span

_RUNNERS: dict[str, Callable] = {
    "ppgnn": run_ppgnn,
    "ppgnn-opt": run_ppgnn_opt,
    "naive": run_naive,
}


@dataclass
class SessionTotals:
    """Accumulated costs across the session's queries."""

    queries: int = 0
    comm_bytes: int = 0
    user_seconds: float = 0.0
    lsp_seconds: float = 0.0
    answers_returned: int = 0

    def add(self, result: ProtocolResult) -> None:
        """Fold one protocol result into the running totals."""
        self.queries += 1
        self.comm_bytes += result.report.total_comm_bytes
        self.user_seconds += result.report.user_cost_seconds
        self.lsp_seconds += result.report.lsp_cost_seconds
        self.answers_returned += len(result.answers)

    @property
    def mean_comm_bytes(self) -> float:
        return self.comm_bytes / self.queries if self.queries else 0.0

    @property
    def mean_answers(self) -> float:
        return self.answers_returned / self.queries if self.queries else 0.0


@dataclass
class QuerySession:
    """A long-lived query relationship between one group shape and one LSP.

    Parameters
    ----------
    lsp:
        The provider to query.
    config:
        Privacy/system parameters, fixed for the session.  A ``key_seed``
        is required: it pins the session key pair so every query reuses it
        (the offline-setup model).
    protocol:
        ``"ppgnn"`` (default), ``"ppgnn-opt"``, or ``"naive"``.
    seed:
        Session seed, an integer >= 0; query i runs with ``seed + i``.
    max_history:
        Retained :class:`ProtocolResult` count, an integer >= 0.  A
        long-lived session would otherwise grow ``history`` (and every
        transcript it pins) without bound; only the newest ``max_history``
        results are kept, while ``totals`` stays exact over *all* queries.
        ``None`` disables the cap.
    guard:
        A :class:`~repro.guard.guard.ProtocolGuard` arming the
        hostile-input defenses for every query; None (default) keeps the
        historical trusting behavior.
    nonce_pool:
        A :class:`~repro.crypto.noncepool.NoncePool` under the session key;
        every query's indicator encryptions then spend precomputed
        obfuscation factors.  Pools may be shared across sessions with the
        same public key (the serving engine does exactly that); None keeps
        the online-encryption behavior.
    obs:
        An :class:`~repro.obs.Observability` handle; every query then
        traces a ``session.query`` span (with the protocol round and its
        phases as children) and publishes the crypto counters.  None
        (default) keeps the uninstrumented path byte-identical.
    """

    lsp: LSPServer
    config: PPGNNConfig
    protocol: str = "ppgnn"
    seed: int = 0
    max_history: int | None = 256
    guard: ProtocolGuard | None = None
    nonce_pool: "NoncePool | None" = None
    obs: Observability | None = None
    totals: SessionTotals = field(default_factory=SessionTotals, init=False)
    history: list[ProtocolResult] = field(default_factory=list, init=False)

    def __post_init__(self) -> None:
        if self.protocol not in _RUNNERS:
            raise ConfigurationError(
                f"unknown protocol {self.protocol!r}; known: {sorted(_RUNNERS)}"
            )
        if self.config.key_seed is None:
            raise ConfigurationError(
                "sessions reuse one key pair; set config.key_seed"
            )
        self.seed = positive_int(self.seed, "seed", floor=0)
        if self.max_history is not None:
            self.max_history = positive_int(self.max_history, "max_history", floor=0)

    def _remember(self, result: ProtocolResult) -> None:
        """Append to history, trimming to the newest ``max_history`` entries."""
        self.history.append(result)
        if self.max_history is not None and len(self.history) > self.max_history:
            del self.history[: len(self.history) - self.max_history]

    def query(
        self, locations: Sequence[Point], seed: int | None = None
    ) -> ProtocolResult:
        """Run one group query and fold its costs into the session totals.

        ``seed`` overrides this query's randomness seed (default: the
        session sequence ``self.seed + totals.queries``).  An explicit seed
        lets a serving layer re-issue a query *verbatim* — same dummies,
        same placement plan — which is what makes repeated queries
        cache-servable; the totals still advance normally.
        """
        runner = _RUNNERS[self.protocol]
        with maybe_span(
            self.obs, "session.query", protocol=self.protocol, n=len(locations)
        ):
            result = runner(
                self.lsp,
                locations,
                self.config,
                seed=self.seed + self.totals.queries if seed is None else seed,
                nonce_pool=self.nonce_pool,
                guard=self.guard,
                obs=self.obs,
            )
        self.totals.add(result)
        self._remember(result)
        return result

    def reset_totals(self) -> SessionTotals:
        """Start a fresh accounting period; returns the closed one."""
        closed = self.totals
        self.totals = SessionTotals()
        self.history = []
        return closed
