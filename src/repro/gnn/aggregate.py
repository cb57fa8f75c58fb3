"""Monotonically increasing aggregate cost functions (Eqn 1).

The paper's F maps the vector of user distances to a single cost and must
be monotonically increasing in every argument — that property is what makes
``F(mindist(p, MBR))`` a valid lower bound inside the MBM search and what
the inequality attack (Section 5.1) exploits.  The three aggregates the
paper names are provided; custom aggregates can be registered for the
"any group query" black-box claim.

Each aggregate exposes both a scalar form and a vectorized numpy form over a
``(samples, users)`` distance matrix (used by the MBM walk and the
Monte-Carlo answer sanitation).  For the built-in three the two forms return
the identical float: ``max`` and ``min`` only select, and ``sum`` is a
left-to-right fold, ``((d_1 + d_2) + d_3) + ...``, in both forms
(``np.add.accumulate`` along the users axis).  Neither builtin ``sum``
(compensated from Python 3.12) nor ``ndarray.sum`` (pairwise along the
contiguous axis) is used, as their rounding differs from the fold's and
from each other's.

``sum`` also carries ``rect_bound``, a lower bound over rectangles from its
convexity (:func:`~repro.geometry.distance.sum_support_arrays`), which the
MBM walk uses to key nodes tighter than F of the mindists alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.distance import sum_support_arrays


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
        ``(samples,)`` array of costs.  Only the built-in aggregates are
        relied on to match ``combine`` exactly; the MBM walk applies a
        custom aggregate's ``combine`` to each row instead.
    partial / merge:
        Optional decomposition for associative aggregates, exploited by the
        answer sanitation: ``partial`` reduces the known users' distances to
        one scalar per POI, and ``merge(sample_dists, partial)`` combines a
        column of sample distances with that scalar into the full
        aggregate — e.g. plain addition for ``sum``.  When either is None
        the sanitizer falls back to ``combine_rows`` on explicitly
        assembled matrices, which works for any monotone F.
    rect_bound:
        Optional lower bound of F over rectangles, with the signature of
        :func:`~repro.geometry.distance.sum_support_arrays`: users stacked
        ``(2, 1, n)``, rectangle corners ``(2, m, 1)``, one bound per
        rectangle, at most the computed cost of every point inside.  The
        MBM walk keys a node of a group of two or more users by the larger
        of this and F of the mindists; NaN falls back to the latter.
        ``sum`` uses its convexity (the supporting line at the centre).
    """

    name: str
    combine: Callable[[Iterable[float]], float]
    combine_rows: Callable[[np.ndarray], np.ndarray]
    partial: Callable[[Iterable[float]], float] | None = None
    merge: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    rect_bound: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None = None

    def __call__(self, distances: Iterable[float]) -> float:
        return self.combine(distances)

    @property
    def decomposable(self) -> bool:
        """Whether the fast partial/merge sanitation path is available."""
        return self.partial is not None and self.merge is not None

    def __repr__(self) -> str:
        return f"Aggregate({self.name!r})"


def _left_fold(distances: Iterable[float]) -> float:
    """``((d_1 + d_2) + d_3) + ...``: one rounding per term, in order."""
    terms = iter(distances)
    total = next(terms, 0.0)
    for d in terms:
        total += d
    return float(total)


def _left_fold_rows(m: np.ndarray) -> np.ndarray:
    """:func:`_left_fold` of every row of ``m``, bit for bit."""
    return np.add.accumulate(m, axis=1)[:, -1]


SUM = Aggregate(
    "sum",
    _left_fold,
    _left_fold_rows,
    partial=_left_fold,
    merge=np.add,
    rect_bound=sum_support_arrays,
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
