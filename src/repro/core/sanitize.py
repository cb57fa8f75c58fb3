"""Answer sanitation: the longest safe prefix under full user collusion.

Section 5.2: before returning a candidate answer, the LSP simulates the
inequality attack for *every* target user.  A prefix ``p_1..p_t`` of the
ranked answer is safe when, for each target, the feasible region carved by
the ``t - 1`` inequalities of Eqn (14) passes the hypothesis test of
Section 5.3 (the region is larger than ``theta_0`` of the space with
confidence ``1 - gamma``).  The returned answer is the longest safe prefix;
``t = 1`` has no inequalities and is always safe.

Implementation notes (DESIGN.md, "Sanitation hot path", gives the
argument; the ablation bench measures the speed-up):

- The test is evaluated on one batch of ``N_H`` uniform sample locations
  per candidate query.  The prefix grows one POI at a time and evaluation
  stops at the first unsafe length, so POI columns past that point are
  never computed — why the LSP cost flattens as k grows (Figure 6f).
- Each target's inequalities are AND-ed into one cumulative sample mask;
  its count after POI t is the X that the Z-test of Eqn (16) receives for
  the length-t prefix (prefix counts are non-increasing in t).
- For the built-in sum/max/min the known users' distances fold into one
  scalar per POI (``Aggregate.partial``).  Sample distances are a cheap
  ``sqrt(dx*dx + dy*dy)`` written into buffers the sanitizer owns, and any
  comparison that lands within a ``1e-9`` band of its threshold is decided
  again with ``np.hypot``, so every inequality bit equals the exact
  evaluation.  Custom aggregates evaluate exact ``np.hypot`` columns with
  their own ``merge`` or ``combine_rows``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.datasets.poi import POI
from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.geometry.space import LocationSpace
from repro.gnn.aggregate import MAX, MIN, SUM, Aggregate
from repro.stats.hypothesis import SanitationTestPlan

#: Aggregates whose ``merge`` (``np.add``, ``np.maximum``, ``np.minimum``)
#: the cheap-distance path reasons about; any other aggregate is evaluated
#: with exact ``np.hypot`` columns.
_CHEAP_AGGREGATES = (SUM, MAX, MIN)
#: A comparison within ``_BAND * (R_j + R_j+1 + |P_j| + |P_j+1|) + _TINY`` of
#: its threshold is re-decided exactly.  The cheap values differ from the
#: exact ones by about 1e-15 of the same scale, six orders of magnitude
#: inside the band; the absolute term covers subnormal values.
_BAND = 1e-9
_TINY = 1e-300


@dataclass(frozen=True, slots=True)
class SanitationOutcome:
    """The sanitized prefix plus per-target diagnostics."""

    prefix: tuple[POI, ...]
    safe_lengths: tuple[int, ...]  # per target user: its longest safe prefix


class AnswerSanitizer:
    """Stateful sanitizer owned by the LSP (one per query configuration).

    Follows Section 5.2 literally: the prefix grows one POI at a time and
    evaluation stops at the first unsafe length.  The LSP builds one
    sanitizer per request, so the ``N_H``-long work buffers it keeps serve
    every candidate query of that request; memory is O(N_H) whatever the
    answer length.
    """

    def __init__(
        self,
        space: LocationSpace,
        aggregate: Aggregate,
        plan: SanitationTestPlan,
        rng: np.random.Generator,
    ) -> None:
        self.space = space
        self.aggregate = aggregate
        self.plan = plan
        self.rng = rng
        self._columns = np.empty((4, 0))
        self._mask = np.empty(0, dtype=bool)

    # ----------------------------------------------------------- main entry

    def sanitize(
        self, pois: Sequence[POI], candidate: Sequence[Point]
    ) -> SanitationOutcome:
        """Longest prefix of ``pois`` safe against every colluding majority.

        ``candidate`` holds the candidate query's n locations.  Groups of
        one user have no Privacy IV requirement (Definition 2.2), so the
        full answer passes through unchanged.
        """
        k = len(pois)
        n = len(candidate)
        if n < 2 or k <= 1:
            return SanitationOutcome(tuple(pois), tuple([k] * max(n, 1)))
        xs, ys = self.space.sample_arrays(self.plan.n_samples, self.rng)
        return self._sanitize_incremental(pois, candidate, xs, ys)

    def _sanitize_incremental(
        self,
        pois: Sequence[POI],
        candidate: Sequence[Point],
        xs: np.ndarray,
        ys: np.ndarray,
    ) -> SanitationOutcome:
        """Grow the prefix, testing every target per length; stop when unsafe.

        The samples ``xs``/``ys`` must lie inside ``space.bounds``.  The
        outcome equals :meth:`sanitize_scalar`'s prefix on the same samples
        (tested); targets still safe when another fails keep the length
        reached so far.
        """
        if self.aggregate in _CHEAP_AGGREGATES:
            counts = self._cheap_counts(pois, candidate, xs, ys)
        else:
            counts = self._exact_counts(pois, candidate, xs, ys)
        safe_lengths = [1] * len(candidate)
        for t, inside_counts in zip(range(2, len(pois) + 1), counts, strict=False):
            for target, count in enumerate(inside_counts):
                if self.plan.is_safe(count):
                    safe_lengths[target] = t
            if min(safe_lengths) < t:
                break
        prefix_len = min(safe_lengths)
        return SanitationOutcome(tuple(pois[:prefix_len]), tuple(safe_lengths))

    # ------------------------------------------------ sum / max / min path

    def _cheap_counts(
        self,
        pois: Sequence[POI],
        candidate: Sequence[Point],
        xs: np.ndarray,
        ys: np.ndarray,
    ) -> Iterator[list[int]]:
        """Per prefix length t = 2, 3, ...: each target's in-region count.

        Only the distance columns of POIs ``j - 1`` and ``j`` are alive.
        For sum, target i's inequality ``d_{j-1} + P_i,j-1 <= d_j + P_i,j``
        compares the shared column ``D = d_j - d_{j-1}`` with the scalar
        ``P_i,j-1 - P_i,j``; max and min merge each target's partials into
        the column buffers and compare their difference with 0.
        """
        if len(self._mask) != len(xs):
            self._columns = np.empty((4, len(xs)))
            self._mask = np.empty(len(xs), dtype=bool)
        low, high, diff, scratch = self._columns
        mask = self._mask
        merge = self.aggregate.merge
        is_sum = merge is np.add
        inside = np.ones((len(candidate), len(xs)), dtype=bool)
        self._cheap_distances(pois[0], xs, ys, high, scratch)
        high_partials, high_reach = self._partials(pois[0], candidate), self._reach(pois[0])
        for j in range(1, len(pois)):
            low, high = high, low
            low_partials, low_reach = high_partials, high_reach
            self._cheap_distances(pois[j], xs, ys, high, scratch)
            high_partials, high_reach = self._partials(pois[j], candidate), self._reach(pois[j])
            if is_sum:
                np.subtract(high, low, out=diff)
            counts = []
            for target, row in enumerate(inside):
                p_low, p_high = low_partials[target], high_partials[target]
                if is_sum:
                    threshold = p_low - p_high
                else:
                    merge(low, p_low, out=scratch)  # type: ignore[misc]
                    merge(high, p_high, out=diff)  # type: ignore[misc]
                    np.subtract(diff, scratch, out=diff)
                    threshold = 0.0
                tol = _BAND * (low_reach + high_reach + abs(p_low) + abs(p_high)) + _TINY
                np.greater_equal(diff, threshold - tol, out=mask)
                row &= mask
                np.less(diff, threshold + tol, out=mask)
                mask &= row
                if mask.any():
                    band = np.flatnonzero(mask)
                    row[band] = self._recheck(
                        band, xs, ys, pois[j - 1], pois[j], p_low, p_high
                    )
                counts.append(np.count_nonzero(row))
            yield counts

    @staticmethod
    def _cheap_distances(
        poi: POI, xs: np.ndarray, ys: np.ndarray, out: np.ndarray, scratch: np.ndarray
    ) -> None:
        """``sqrt(dx*dx + dy*dy)`` from every sample to ``poi``, into ``out``."""
        p = poi.location
        np.subtract(xs, p.x, out=out)
        np.multiply(out, out, out=out)
        np.subtract(ys, p.y, out=scratch)
        np.multiply(scratch, scratch, out=scratch)
        np.add(out, scratch, out=out)
        np.sqrt(out, out=out)

    def _partials(self, poi: POI, candidate: Sequence[Point]) -> list[float]:
        """Per target: the other users' aggregate distance to ``poi`` (P)."""
        partial = self.aggregate.partial
        dists = [loc.distance_to(poi.location) for loc in candidate]
        return [
            partial(d for i, d in enumerate(dists) if i != target)  # type: ignore[misc]
            for target in range(len(dists))
        ]

    def _reach(self, poi: POI) -> float:
        """R: the farthest any location of the space lies from ``poi``."""
        b, p = self.space.bounds, poi.location
        return math.hypot(max(p.x - b.xmin, b.xmax - p.x), max(p.y - b.ymin, b.ymax - p.y))

    def _recheck(
        self,
        band: np.ndarray,
        xs: np.ndarray,
        ys: np.ndarray,
        low_poi: POI,
        high_poi: POI,
        p_low: float,
        p_high: float,
    ) -> np.ndarray:
        """The exact inequality bits for the samples in ``band``.

        ``np.hypot`` distances, then ``merge``, then ``<=``: the arithmetic
        of an exact column, restricted to the band's samples.
        """
        merge = self.aggregate.merge
        bx, by = xs[band], ys[band]
        lp, hp = low_poi.location, high_poi.location
        low = merge(np.hypot(bx - lp.x, by - lp.y), p_low)  # type: ignore[misc]
        high = merge(np.hypot(bx - hp.x, by - hp.y), p_high)  # type: ignore[misc]
        return low <= high

    # ------------------------------------------------ custom aggregates

    def _exact_counts(
        self,
        pois: Sequence[POI],
        candidate: Sequence[Point],
        xs: np.ndarray,
        ys: np.ndarray,
    ) -> Iterator[list[int]]:
        """Per prefix length t = 2, 3, ...: each target's in-region count.

        Any monotone aggregate: exact ``np.hypot`` distance columns reduced
        by the aggregate itself.  Each target keeps only its value column
        for the previous POI.
        """
        knowns = [
            [loc for i, loc in enumerate(candidate) if i != target]
            for target in range(len(candidate))
        ]
        inside = np.ones((len(candidate), len(xs)), dtype=bool)
        previous: list[np.ndarray] = []
        for j, poi in enumerate(pois):
            p = poi.location
            dists = np.hypot(xs - p.x, ys - p.y)
            for target, known in enumerate(knowns):
                value = self._aggregate_column(dists, poi, known)
                if j == 0:
                    previous.append(value)
                    continue
                inside[target] &= previous[target] <= value
                previous[target] = value
            if j:
                yield [np.count_nonzero(row) for row in inside]

    def _aggregate_column(
        self, dists: np.ndarray, poi: POI, known: list[Point]
    ) -> np.ndarray:
        """F(poi, C) with the target swept over the samples, one POI column."""
        agg = self.aggregate
        if agg.decomposable:
            partial = agg.partial(loc.distance_to(poi.location) for loc in known)  # type: ignore[misc]
            return agg.merge(dists, np.full(1, partial))  # type: ignore[misc]
        rows = np.empty((len(dists), len(known) + 1))
        rows[:, 0] = dists
        for idx, loc in enumerate(known):
            rows[:, idx + 1] = loc.distance_to(poi.location)
        return agg.combine_rows(rows)

    # ------------------------------------------------- reference (slow) path

    def sanitize_scalar(
        self,
        pois: Sequence[POI],
        candidate: Sequence[Point],
        xs: np.ndarray,
        ys: np.ndarray,
    ) -> SanitationOutcome:
        """Pure-Python reference implementation over explicit samples.

        Grows the prefix one POI at a time and re-tests each length with
        scalar loops, exactly as Section 5.2 narrates.  Used to validate
        the vectorized path (identical samples must give an identical
        prefix) and by the sanitation ablation benchmark.  Unlike the
        vectorized path it tests every target to its own unsafe length.
        """
        k = len(pois)
        n = len(candidate)
        if n < 2 or k <= 1:
            return SanitationOutcome(tuple(pois), tuple([k] * max(n, 1)))
        if len(xs) != self.plan.n_samples:
            raise ConfigurationError("sample arrays must match the plan size")
        samples = [Point(float(x), float(y)) for x, y in zip(xs, ys, strict=True)]
        safe_lengths = []
        for target in range(n):
            known = [loc for i, loc in enumerate(candidate) if i != target]
            safe = 1
            for t in range(2, k + 1):
                count = 0
                for sample in samples:
                    group = [sample] + known
                    costs = [
                        self.aggregate(q.distance_to(p.location) for q in group)
                        for p in pois[:t]
                    ]
                    if all(costs[i] <= costs[i + 1] for i in range(t - 1)):
                        count += 1
                if self.plan.is_safe(count):
                    safe = t
                else:
                    break
            safe_lengths.append(safe)
        overall = min(safe_lengths)
        return SanitationOutcome(tuple(pois[:overall]), tuple(safe_lengths))
