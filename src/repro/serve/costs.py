"""Predicted service times for the discrete-event serving clock.

The serving engine's simulated timeline must be *deterministic*: two runs
with the same seed have to produce byte-identical reports, regardless of
how many worker processes executed the crypto or how loaded the host was.
Measured wall time can never satisfy that, so the event clock advances by
**predicted** service times instead — nominal per-operation costs times
the exact homomorphic operation counts each protocol round performs.

The operation counts mirror the runners precisely: both methods read the
round's shape from :func:`repro.core.group.round_shape`, as the runners
do.

- PPGNN and Naive: a delta'-long indicator encryption, an ``m x delta'``
  private selection (Theorem 3.1), delta' per-candidate kGNN queries, and
  m answer decryptions.  Naive's delta' is delta.
- PPGNN-OPT: the two small indicators (inner at eps_1, outer at eps_2),
  the padded per-block selections plus the omega-wide nested selection
  at eps_2, and a nested (two-stage) answer decryption.

Nominal seconds are calibrated once for the 512-bit reference key and
scale cubically with key size — modular exponentiation under an l-bit
modulus costs Theta(l^3) with schoolbook arithmetic, which is what both
CPython and the paper's GMP baseline effectively pay at these sizes.
Operations at eps_2 work modulo N^3 instead of N^2 and are weighted by
the same cube of the modulus-length ratio, i.e. ``(3/2)^3``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.costmodel import _answer_integers
from repro.core.config import PPGNNConfig
from repro.core.group import round_shape
from repro.errors import ConfigurationError

#: Key size the nominal per-op seconds are calibrated against.
REFERENCE_KEYSIZE = 512

#: Exponent of the keysize scaling law for modular-exponentiation work.
_KEYSIZE_POWER = 3

#: Weight of an eps_2 (s=2) operation relative to eps_1: the modulus grows
#: from 2l to 3l bits, so modexp work grows by (3/2)^3.
_LEVEL2_WEIGHT = (3 / 2) ** _KEYSIZE_POWER


@dataclass(frozen=True, slots=True)
class CostModel:
    """Nominal seconds per primitive at :data:`REFERENCE_KEYSIZE` bits.

    The defaults are rough pure-Python magnitudes; their absolute scale
    only stretches the simulated timeline uniformly, so relative protocol
    comparisons (and determinism) hold for any positive values.
    """

    encryption_seconds: float = 2.0e-3
    decryption_seconds: float = 2.0e-3
    scalar_mul_seconds: float = 1.0e-3
    kgnn_seconds: float = 2.0e-4

    def __post_init__(self) -> None:
        for name in (
            "encryption_seconds",
            "decryption_seconds",
            "scalar_mul_seconds",
            "kgnn_seconds",
        ):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")

    def _scale(self, keysize: int) -> float:
        return (keysize / REFERENCE_KEYSIZE) ** _KEYSIZE_POWER

    def predict_seconds(self, protocol: str, n: int, config: PPGNNConfig) -> float:
        """Predicted service seconds of one round of ``protocol`` for n users.

        Pure function of (protocol, n, config) — the determinism anchor of
        the serving engine's simulated clock.
        """
        shape = round_shape(protocol, n, config)
        scale = self._scale(config.keysize)
        m = _answer_integers(config.keysize, config.k)
        delta_prime = shape.partition.delta_prime
        if shape.nested:
            (width, _), (omega, _) = shape.indicators
            crypto = (
                width * self.encryption_seconds
                + omega * self.encryption_seconds * _LEVEL2_WEIGHT
                + m * (self.decryption_seconds * _LEVEL2_WEIGHT + self.decryption_seconds)
                + m * width * omega * self.scalar_mul_seconds
                + m * omega * self.scalar_mul_seconds * _LEVEL2_WEIGHT
            )
        else:
            crypto = (
                delta_prime * self.encryption_seconds
                + m * self.decryption_seconds
                + m * delta_prime * self.scalar_mul_seconds
            )
        kgnn = delta_prime * self.kgnn_seconds
        return crypto * scale + kgnn

    def predict_ops(
        self, protocol: str, n: int, config: PPGNNConfig
    ) -> dict[str, int]:
        """Exact per-round operation counts of one honest protocol round.

        Same arithmetic as :meth:`predict_seconds`, but returning the raw
        counts — the numbers a traced round's span attributes must match
        exactly (the observability acceptance check).  Only the counts
        that are a pure function of (protocol, n, config) are included:
        encryptions, decryptions, and kGNN queries.  Scalar multiplications
        are *data-dependent* (``hom_dot`` skips zero scalars, and how many
        indicator slots are zero depends on the placement draw), so they
        are deliberately absent rather than approximately present.
        """
        shape = round_shape(protocol, n, config)
        m = _answer_integers(config.keysize, config.k)
        return {
            "encryptions": sum(length for length, _ in shape.indicators),
            # A nested answer is decrypted once per selection phase.
            "decryptions": len(shape.indicators) * m,
            "kgnn_queries": shape.partition.delta_prime,
        }
