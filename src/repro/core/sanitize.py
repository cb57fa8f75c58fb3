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
- A request's candidates are tested as one batch, on two cores when the
  host has them (:func:`repro.crypto.cores.sanitize_many`).  The tests do
  not depend on each other: the s-th candidate that reaches the test
  draws its samples from a copy of the sampler advanced ``2 * N_H * s``
  words past where it stood at entry, which are the samples it would
  draw were the candidates tested one after another, and the sampler
  ends where that would leave it.
- Each target's inequalities are AND-ed into one cumulative sample mask;
  its count after POI t is the X that the Z-test of Eqn (16) receives for
  the length-t prefix (prefix counts are non-increasing in t).
- Every distance is the library's one ``sqrt(dx*dx + dy*dy)``
  (:mod:`repro.geometry.distance`), so sample columns equal the scalar
  reference's distances bit for bit.
- For the built-in sum/max/min the known users' distances fold into one
  scalar per POI (``Aggregate.partial``), and sample distances are written
  into buffers the sanitizer owns.  Sum compares one shared difference
  column with a per-target threshold, a rearrangement whose rounding
  differs from the reference comparison's; any comparison within a
  ``1e-9`` band of its threshold is decided again in the reference
  arithmetic, so every inequality bit equals the reference evaluation.
  Custom aggregates evaluate the reference columns with their own
  ``merge`` or ``combine_rows``.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass
from functools import partial
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.crypto import cores
from repro.datasets.poi import POI
from repro.errors import ConfigurationError
from repro.geometry.distance import maxdist_point_rect, pairwise_distances
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.space import LocationSpace
from repro.gnn.aggregate import MAX, MIN, SUM, Aggregate
from repro.stats.hypothesis import SanitationTestPlan

#: Aggregates whose ``merge`` (``np.add``, ``np.maximum``, ``np.minimum``)
#: the difference-column path reasons about; any other aggregate is
#: evaluated with reference columns.  Only their tests go to the second
#: core, which names them by their index here.
_CHEAP_AGGREGATES = (SUM, MAX, MIN)
#: PCG64 words one sample location consumes: ``uniform`` turns one 64-bit
#: output into each float64, and :meth:`LocationSpace.sample_arrays` draws
#: the x and the y coordinates (tested against ``PCG64.advance``).
_WORDS_PER_SAMPLE = 2
#: A comparison within ``_BAND * (R_j-1 + R_j + |P_j-1| + |P_j|) + _TINY`` of
#: its threshold is re-decided in the reference arithmetic.  For sum,
#: ``D = d_j - d_j-1`` against ``P_j-1 - P_j`` is not bit-equivalent to
#: ``d_j-1 + P_j-1 <= d_j + P_j``: each side of either form rounds once, an
#: error of at most 2**-53 of that scale, seven orders of magnitude inside
#: the band.  The absolute term covers subnormal values.  Max and min only
#: select, so their difference has the sign of the reference comparison;
#: the band only re-checks their near-ties.
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
    answer length.  ``rng`` must be backed by PCG64, whose state a test
    can jump ahead (``default_rng`` is).
    """

    def __init__(
        self,
        space: LocationSpace,
        aggregate: Aggregate,
        plan: SanitationTestPlan,
        rng: np.random.Generator,
    ) -> None:
        if not isinstance(getattr(rng, "bit_generator", None), np.random.PCG64):
            raise ConfigurationError(
                "the sanitation sampler must be a numpy Generator backed by PCG64 "
                "(np.random.default_rng)"
            )
        self.space = space
        self.aggregate = aggregate
        self.plan = plan
        self.rng = rng
        self._draws = np.random.Generator(np.random.PCG64(0))  # each test's samples
        self._columns = np.empty((4, 0))
        self._mask = np.empty(0, dtype=bool)

    # ----------------------------------------------------------- main entry

    def sanitize(
        self,
        answers: Sequence[Sequence[POI]],
        candidates: Sequence[Sequence[Point]],
    ) -> list[SanitationOutcome]:
        """Per candidate query, the longest prefix of its answer safe
        against every colluding majority.

        ``candidates[i]`` holds the i-th candidate query's n locations and
        ``answers[i]`` its ranked answer.  Groups of one user have no
        Privacy IV requirement (Definition 2.2), so such an answer, and an
        answer of at most one POI, passes through unchanged and draws no
        samples.  The others are tested in order on the samples they would
        draw one after another from ``rng`` (module docstring), on two
        cores when the host has them, and ``rng`` ends where that would
        leave it.
        """
        if len(answers) != len(candidates):
            raise ConfigurationError(
                f"{len(answers)} answers for {len(candidates)} candidate queries"
            )
        outcomes = [
            SanitationOutcome(tuple(pois), tuple([len(pois)] * max(len(candidate), 1)))
            for pois, candidate in zip(answers, candidates, strict=True)
        ]
        tested = [
            index
            for index, (pois, candidate) in enumerate(zip(answers, candidates, strict=True))
            if len(candidate) >= 2 and len(pois) >= 2
        ]
        if not tested:
            return outcomes
        sampler = self.rng.bit_generator
        state = sampler.state["state"]
        words = (state["state"], state["inc"])

        def test(slot: int) -> tuple[int, ...]:
            index = tested[slot]
            return self._safe_lengths(words, slot, answers[index], candidates[index])

        if self.aggregate in _CHEAP_AGGREGATES:
            request = partial(self._request, words, [(answers[i], candidates[i]) for i in tested])
            lengths = cores.sanitize_many(request, len(tested), test)
        else:
            lengths = [test(slot) for slot in range(len(tested))]
        sampler.advance(_WORDS_PER_SAMPLE * self.plan.n_samples * len(tested))
        for index, safe_lengths in zip(tested, lengths, strict=True):
            prefix = tuple(answers[index][: min(safe_lengths)])
            outcomes[index] = SanitationOutcome(prefix, safe_lengths)
        return outcomes

    def _safe_lengths(
        self,
        words: tuple[int, int],
        slot: int,
        pois: Sequence[POI],
        candidate: Sequence[Point],
    ) -> tuple[int, ...]:
        """One test: the safe lengths of the ``slot``-th tested candidate.

        Its samples come from a PCG64 sampler at state ``words`` advanced
        by ``2 * N_H * slot`` words.  The LSP and the second-core helper
        both run each test through here.
        """
        draws = self._draws
        draws.bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": words[0], "inc": words[1]},
            "has_uint32": 0,
            "uinteger": 0,
        }
        draws.bit_generator.advance(_WORDS_PER_SAMPLE * self.plan.n_samples * slot)
        xs, ys = self.space.sample_arrays(self.plan.n_samples, draws)
        return self._sanitize_incremental(pois, candidate, xs, ys).safe_lengths

    def _request(
        self,
        words: tuple[int, int],
        tests: list[tuple[Sequence[POI], Sequence[Point]]],
    ) -> tuple:
        """The body of a ``"sanitize"`` request: plain values that
        :func:`helper_tests` rebuilds this sanitizer's ``tests`` from."""
        bounds = self.space.bounds
        return (
            (bounds.xmin, bounds.ymin, bounds.xmax, bounds.ymax),
            _CHEAP_AGGREGATES.index(self.aggregate),
            astuple(self.plan),
            words,
            [
                (
                    [(p.x, p.y) for p in candidate],
                    [(poi.location.x, poi.location.y) for poi in pois],
                )
                for pois, candidate in tests
            ],
        )

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
        """:func:`pairwise_distances` from every sample to ``poi``, into ``out``.

        The same operations in the same order, so the same floats, without
        allocating a column.
        """
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
        return maxdist_point_rect(poi.location, self.space.bounds)

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
        """The reference inequality bits for the samples in ``band``.

        Distances, then ``merge``, then ``<=``: the arithmetic of a
        reference column, restricted to the band's samples.
        """
        merge = self.aggregate.merge
        bx, by = xs[band], ys[band]
        low = merge(pairwise_distances(bx, by, low_poi.location), p_low)  # type: ignore[misc]
        high = merge(pairwise_distances(bx, by, high_poi.location), p_high)  # type: ignore[misc]
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

        Any monotone aggregate: reference distance columns reduced by the
        aggregate itself.  Each target keeps only its value column for the
        previous POI.
        """
        knowns = [
            [loc for i, loc in enumerate(candidate) if i != target]
            for target in range(len(candidate))
        ]
        inside = np.ones((len(candidate), len(xs)), dtype=bool)
        previous: list[np.ndarray] = []
        for j, poi in enumerate(pois):
            dists = pairwise_distances(xs, ys, poi.location)
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


def helper_tests(
    body: Sequence, last: AnswerSanitizer | None
) -> tuple[AnswerSanitizer, list[tuple[int, Callable[[], tuple[int, ...]]]]]:
    """The second-core helper's side of a ``"sanitize"`` request.

    Returns the sanitizer that runs its tests, ``last`` when that has the
    request's space, aggregate and plan (so its buffers are reused), and
    each test's slot with the function that computes it, tail first.
    """
    bounds, aggregate_index, plan_fields, words, items = body
    space = LocationSpace(Rect(*bounds))
    aggregate = _CHEAP_AGGREGATES[aggregate_index]
    plan = SanitationTestPlan(*plan_fields)
    sanitizer = last
    if sanitizer is None or (sanitizer.space, sanitizer.aggregate, sanitizer.plan) != (
        space,
        aggregate,
        plan,
    ):
        # Its own sampler is never drawn from: each test draws from a copy.
        sanitizer = AnswerSanitizer(space, aggregate, plan, np.random.default_rng(0))

    def test(slot: int) -> tuple[int, ...]:
        locations, poi_locations = items[slot]
        candidate = [Point(x, y) for x, y in locations]
        pois = [POI(index, Point(x, y)) for index, (x, y) in enumerate(poi_locations)]
        return sanitizer._safe_lengths(words, slot, pois, candidate)

    return sanitizer, [(slot, partial(test, slot)) for slot in reversed(range(len(items)))]
