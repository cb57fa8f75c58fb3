"""Monotonically increasing aggregate cost functions (Eqn 1).

The paper's F maps the vector of user distances to a single cost and must
be monotonically increasing in every argument — that property is what makes
``F(mindist(p, MBR))`` a valid lower bound inside the MBM search and what
the inequality attack (Section 5.1) exploits.  The three aggregates the
paper names are provided; custom aggregates can be registered for the
"any group query" black-box claim.

Each aggregate exposes both a scalar form (used by the query engines) and a
vectorized numpy form over a ``(samples, users)`` distance matrix (used by
the Monte-Carlo answer sanitation, where tens of thousands of candidate
locations are tested at once).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Aggregate:
    """A named monotone aggregate with scalar and vectorized evaluation.

    Attributes
    ----------
    name:
        Registry key (``"sum"``, ``"max"``, ``"min"``, or custom).
    combine:
        Scalar form: maps an iterable of distances to the aggregate cost.
        The iterable may be a one-shot generator — implementations that
        need multiple passes must materialize it (``list(distances)``)
        before reducing.
    combine_rows:
        Vectorized form: maps a ``(samples, users)`` float array to a
        ``(samples,)`` array of costs.
    partial / merge:
        Optional decomposition for associative aggregates, exploited by the
        answer sanitation: ``partial`` reduces the known users' distances to
        one scalar per POI, and ``merge(sample_dists, partial)`` combines a
        column of sample distances with that scalar into the full
        aggregate — e.g. plain addition for ``sum``.  When either is None
        the sanitizer falls back to ``combine_rows`` on explicitly
        assembled matrices, which works for any monotone F.
    """

    name: str
    combine: Callable[[Iterable[float]], float]
    combine_rows: Callable[[np.ndarray], np.ndarray]
    partial: Callable[[Iterable[float]], float] | None = None
    merge: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

    def __call__(self, distances: Iterable[float]) -> float:
        return self.combine(distances)

    @property
    def decomposable(self) -> bool:
        """Whether the fast partial/merge sanitation path is available."""
        return self.partial is not None and self.merge is not None

    def __repr__(self) -> str:
        return f"Aggregate({self.name!r})"


SUM = Aggregate(
    "sum",
    lambda ds: float(sum(ds)),
    lambda m: m.sum(axis=1),
    partial=lambda ds: float(sum(ds)),
    merge=np.add,
)
MAX = Aggregate(
    "max",
    lambda ds: float(max(ds)),
    lambda m: m.max(axis=1),
    partial=lambda ds: float(max(ds)),
    merge=np.maximum,
)
MIN = Aggregate(
    "min",
    lambda ds: float(min(ds)),
    lambda m: m.min(axis=1),
    partial=lambda ds: float(min(ds)),
    merge=np.minimum,
)

_REGISTRY: dict[str, Aggregate] = {a.name: a for a in (SUM, MAX, MIN)}


def register_aggregate(aggregate: Aggregate) -> None:
    """Add a custom monotone aggregate to the registry.

    The caller is responsible for monotonicity; a non-monotone F breaks the
    MBM pruning bound and the sanitation's inequality construction.
    """
    if aggregate.name in _REGISTRY:
        raise ConfigurationError(f"aggregate {aggregate.name!r} already registered")
    _REGISTRY[aggregate.name] = aggregate


def get_aggregate(name: str) -> Aggregate:
    """Look up an aggregate by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown aggregate {name!r}; known: {sorted(_REGISTRY)}"
        ) from None
