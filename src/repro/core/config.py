"""Protocol configuration: the privacy and system parameters of Table 3."""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError, positive_int


@dataclass(frozen=True, slots=True)
class PPGNNConfig:
    """The users' tunables of a PPGNN query.

    Defaults mirror the paper's Table 3 (group-query column) except the key
    size: the paper's C++/GMP implementation uses 1024-bit keys, while the
    pure-Python default here is 512 so benchmark sweeps finish in sensible
    time — pass ``keysize=1024`` to match the paper exactly (supported and
    tested).  The LSP applies the answer sanitation and the aggregate F, so
    sanitation's γ, η, φ and sample count N_H and the aggregate are
    :class:`~repro.core.lsp.LSPServer` arguments, not fields here.

    Attributes
    ----------
    d:
        Privacy I anonymity parameter — location-set size (> 1).
    delta:
        Privacy II anonymity parameter — minimum candidate queries
        (``delta >= d``; for single-user queries it is forced to d).
    k:
        POIs to retrieve.
    theta0:
        Privacy IV parameter — minimum fraction of the space the victim
        must be able to hide in; None disables Privacy IV entirely.
    sanitize:
        Run the answer sanitation of Section 5 (PPGNN).  False gives
        PPGNN-NAS, the no-collusion relaxation benchmarked in Section 8.3.2.
    keysize:
        Paillier modulus bits.
    key_seed:
        Deterministic-key seed; also enables key caching across runs, which
        models the paper's implicit "keys exist before the query" timing.
    """

    d: int = 25
    delta: int = 100
    k: int = 8
    theta0: float | None = 0.05
    sanitize: bool = True
    keysize: int = 512
    key_seed: int | None = 1

    def __post_init__(self) -> None:
        # Stored as ints: key generation shifts by the key size, which
        # overflows a numpy integer, and seeds `random.Random`, which
        # refuses one.
        for name in ("d", "delta", "k", "keysize"):
            object.__setattr__(self, name, positive_int(getattr(self, name), name))
        if self.key_seed is not None:
            object.__setattr__(
                self, "key_seed", positive_int(self.key_seed, "key_seed", floor=0)
            )
        if self.d < 2:
            raise ConfigurationError("d must be > 1 (Privacy I, Definition 2.2)")
        if self.delta < self.d:
            raise ConfigurationError("delta must be >= d (Privacy II, Definition 2.2)")
        if self.theta0 is not None and not 0.0 < self.theta0 <= 1.0:
            raise ConfigurationError("theta0 must be in (0, 1]")
        if self.sanitize and self.theta0 is None:
            raise ConfigurationError("sanitation requires theta0")
        if self.keysize < 64:
            raise ConfigurationError("keysize below 64 bits cannot hold an answer")

    def for_single_user(self) -> "PPGNNConfig":
        """The n = 1 specialization: delta = d, no Privacy IV (Section 3)."""
        return replace(self, delta=self.d, theta0=None, sanitize=False)

    def without_sanitation(self) -> "PPGNNConfig":
        """The PPGNN-NAS relaxation (no answer sanitation)."""
        return replace(self, sanitize=False)
