"""Tests for distance functions, including the R-tree pruning bounds."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.distance import (
    distance_matrix,
    euclidean,
    maxdist_arrays,
    maxdist_point_rect,
    mindist_arrays,
    mindist_point_rect,
    pairwise_distances,
    sum_support_arrays,
)
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.gnn.aggregate import MAX, MIN, SUM, Aggregate
from repro.gnn.mbm import mbm_kgnn, rect_keyer
from repro.index.rtree import RTree

coord = st.floats(min_value=-50, max_value=50, allow_nan=False)
points = st.builds(Point, coord, coord)


@st.composite
def rects(draw):
    x1, x2 = sorted((draw(coord), draw(coord)))
    y1, y2 = sorted((draw(coord), draw(coord)))
    return Rect(x1, y1, x2, y2)


# Coordinates from subnormal to 1e100 magnitudes: squares underflow to zero
# in some examples but never overflow.
wide = st.floats(min_value=-1e100, max_value=1e100, allow_nan=False)
wide_points = st.builds(Point, wide, wide)
groups = st.lists(wide_points, min_size=1, max_size=8)


def scalar_distance(a: Point, b: Point) -> float:
    """The one distance, spelled out: ``sqrt(dx*dx + dy*dy)``."""
    dx = a.x - b.x
    dy = a.y - b.y
    return math.sqrt(dx * dx + dy * dy)


def ordered(a: float, b: float) -> list[float]:
    """``a`` and ``b`` ascending, with -0.0 before 0.0."""
    return sorted((a, b), key=lambda v: (v, math.copysign(1.0, v)))


@st.composite
def rect_and_member(draw):
    """A rectangle and a point inside it, corners and edges included."""
    x1, x2 = ordered(draw(wide), draw(wide))
    y1, y2 = ordered(draw(wide), draw(wide))
    x = draw(st.one_of(st.sampled_from((x1, x2)), st.floats(min_value=x1, max_value=x2)))
    y = draw(st.one_of(st.sampled_from((y1, y2)), st.floats(min_value=y1, max_value=y2)))
    return Rect(x1, y1, x2, y2), Point(x, y)


def stacked(points) -> np.ndarray:
    """Point coordinates as one ``(2, len(points))`` array."""
    return np.array([[p.x for p in points], [p.y for p in points]])


class TestScalarDistances:
    def test_euclidean(self):
        assert euclidean(Point(0, 0), Point(3, 4)) == 5.0

    def test_mindist_inside_is_zero(self):
        assert mindist_point_rect(Point(0.5, 0.5), Rect(0, 0, 1, 1)) == 0.0

    def test_mindist_axis_aligned(self):
        assert mindist_point_rect(Point(2, 0.5), Rect(0, 0, 1, 1)) == 1.0

    def test_mindist_corner(self):
        assert math.isclose(
            mindist_point_rect(Point(2, 2), Rect(0, 0, 1, 1)), math.sqrt(2)
        )

    def test_maxdist_is_farthest_corner(self):
        # From the origin corner, the far corner of the unit square.
        assert math.isclose(
            maxdist_point_rect(Point(0, 0), Rect(0, 0, 1, 1)), math.sqrt(2)
        )


class TestBoundProperties:
    @given(points, rects())
    def test_mindist_le_maxdist(self, p, r):
        assert mindist_point_rect(p, r) <= maxdist_point_rect(p, r) + 1e-12

    @given(rect_and_member(), wide_points)
    def test_bounds_bracket_any_interior_point(self, rect_member, p):
        """Rounding is monotone, so the bounds hold exactly in floats."""
        r, q = rect_member
        d = euclidean(p, q)
        assert mindist_point_rect(p, r) <= d <= maxdist_point_rect(p, r)

    @given(rect_and_member(), groups)
    def test_aggregate_bounds_stay_below_scores(self, rect_member, group):
        rect, p = rect_member
        lower = [mindist_point_rect(q, rect) for q in group]
        dists = [q.distance_to(p) for q in group]
        for aggregate in (SUM, MAX, MIN):
            assert aggregate.combine(lower) <= aggregate.combine(dists)
            rows = aggregate.combine_rows(np.array([lower, dists]))
            assert rows.tolist() == [aggregate.combine(lower), aggregate.combine(dists)]

    @given(wide_points, wide_points)
    def test_mindist_to_degenerate_rect_is_distance(self, p, q):
        r = Rect.from_point(q)
        assert mindist_point_rect(p, r) == euclidean(p, q) == maxdist_point_rect(p, r)


class TestVectorized:
    def test_pairwise_matches_scalar(self):
        xs = np.array([0.0, 1.0, 2.0])
        ys = np.array([0.0, 1.0, 2.0])
        target = Point(1.0, 0.0)
        out = pairwise_distances(xs, ys, target)
        expected = [euclidean(Point(x, y), target) for x, y in zip(xs, ys, strict=True)]
        assert np.allclose(out, expected)

    def test_distance_matrix_matches_scalar(self):
        rng = np.random.default_rng(3)
        xs = rng.uniform(0, 1, 20)
        ys = rng.uniform(0, 1, 20)
        targets = [Point(0.1, 0.9), Point(0.5, 0.5), Point(0.9, 0.1)]
        mat = distance_matrix(xs, ys, targets)
        assert mat.shape == (20, 3)
        for i in range(20):
            for j, t in enumerate(targets):
                assert math.isclose(
                    mat[i, j], euclidean(Point(xs[i], ys[i]), t), rel_tol=1e-12
                )


class TestOneDistance:
    """Every form of the distance returns the scalar form's float, bit for bit."""

    @given(wide_points, wide_points)
    def test_scalar_forms(self, a, b):
        want = scalar_distance(a, b)
        assert a.distance_to(b) == want
        assert euclidean(a, b) == want
        assert b.distance_to(a) == want

    @given(st.lists(wide_points, min_size=1, max_size=12), groups)
    def test_vector_forms(self, samples, targets):
        xs = np.array([s.x for s in samples])
        ys = np.array([s.y for s in samples])
        matrix = distance_matrix(xs, ys, targets)
        for j, t in enumerate(targets):
            column = pairwise_distances(xs, ys, t)
            for i, s in enumerate(samples):
                assert column[i] == scalar_distance(s, t)
                assert matrix[i, j] == scalar_distance(s, t)

    @given(rect_and_member(), groups)
    def test_rect_bound_forms(self, rect_member, group):
        rect, _ = rect_member
        lo = np.array([[rect.xmin], [rect.ymin]])
        hi = np.array([[rect.xmax], [rect.ymax]])
        lower = mindist_arrays(stacked(group), lo, hi)
        upper = maxdist_arrays(stacked(group), lo, hi)
        for i, q in enumerate(group):
            assert lower[i] == mindist_point_rect(q, rect)
            assert upper[i] == maxdist_point_rect(q, rect)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(wide_points, min_size=1, max_size=40), groups, st.integers(1, 10))
    def test_mbm_scores(self, pois, group, k):
        tree = RTree(max_entries=4)
        tree.bulk_load((p, i) for i, p in enumerate(pois))
        for aggregate in (SUM, MAX, MIN):
            got = mbm_kgnn(tree, group, k, aggregate)
            assert len(got) == min(k, len(pois))
            for p, _, score in got:
                assert score == aggregate.combine([scalar_distance(p, q) for q in group])


unit = st.floats(min_value=-1.0, max_value=1.0)


def rect_arrays(rect: Rect) -> tuple[np.ndarray, np.ndarray]:
    """One rectangle's corners stacked ``(2, 1, 1)``, as the walk passes them."""
    return (
        np.array([[[rect.xmin]], [[rect.ymin]]]),
        np.array([[[rect.xmax]], [[rect.ymax]]]),
    )


def user_stack(group) -> np.ndarray:
    """Users stacked ``(2, 1, n)``, as the walk passes them."""
    return stacked(group)[:, None]


@st.composite
def scaled_rect(draw):
    """A rectangle at a scale from 1e-170 to 1e150: wide, 1e-15-relative or flat."""
    scale = 10.0 ** draw(st.integers(-170, 150))
    x, y = draw(unit) * scale, draw(unit) * scale
    extents = []
    for base in (x, y):
        kind = draw(st.sampled_from(("wide", "tiny", "zero")))
        if kind == "wide":
            extents.append(draw(st.floats(0.0, 2.0)) * scale)
        elif kind == "tiny":
            extents.append(draw(st.floats(0.0, 1e-15)) * max(abs(base), scale))
        else:
            extents.append(0.0)
    return Rect(x, y, x + extents[0], y + extents[1]), scale


@st.composite
def convex_case(draw):
    """A rectangle, a group of users and the points of the rectangle to score."""
    rect, scale = draw(scaled_rect())
    corners = [
        Point(rect.xmin, rect.ymin),
        Point(rect.xmin, rect.ymax),
        Point(rect.xmax, rect.ymin),
        Point(rect.xmax, rect.ymax),
    ]
    lo, hi = rect_arrays(rect)
    c = (lo + hi) * 0.5
    centre = Point(float(c[0, 0, 0]), float(c[1, 0, 0]))
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(("uniform", "centre", "corners", "clustered")))
    if kind == "uniform":
        group = [Point(2 * draw(unit) * scale, 2 * draw(unit) * scale) for _ in range(n)]
    elif kind == "centre":
        group = [centre] * n
    elif kind == "corners":
        group = [draw(st.sampled_from(corners)) for _ in range(n)]
    else:
        group = [
            Point(centre.x + draw(unit) * 1e-15 * scale, centre.y + draw(unit) * 1e-15 * scale)
            for _ in range(n)
        ]
    xs = st.floats(rect.xmin, rect.xmax)
    ys = st.floats(rect.ymin, rect.ymax)
    edges = [
        Point(draw(xs), rect.ymin),
        Point(draw(xs), rect.ymax),
        Point(rect.xmin, draw(ys)),
        Point(rect.xmax, draw(ys)),
    ]
    inside = [Point(draw(xs), draw(ys)) for _ in range(4)]
    return rect, group, corners + edges + [centre] + inside


def faithful_custom() -> Aggregate:
    """A custom aggregate: the walk keys it by its own ``combine`` per row."""
    return Aggregate(
        "test-geometry-root-sum-of-squares",
        lambda ds: math.sqrt(sum(d * d for d in ds)),
        lambda m: np.sqrt((m * m).sum(axis=1)),
    )


class TestConvexSumBound:
    """SUM's supporting-line key stays below every score it must bound."""

    @settings(max_examples=400, deadline=None)
    @given(convex_case())
    def test_key_stays_below_every_point_of_the_rectangle(self, case):
        rect, group, members = case
        lo, hi = rect_arrays(rect)
        q = user_stack(group)
        bound = sum_support_arrays(q, lo, hi)[0]
        key = rect_keyer(SUM, len(group))(q, lo, hi)[0]
        assert key >= SUM.combine_rows(mindist_arrays(q, lo, hi))[0]
        for p in members:
            score = SUM.combine([p.distance_to(u) for u in group])
            assert not bound > score, (p, bound, score)
            assert key <= score, (p, key, score)

    def test_underflowed_unit_vector_gets_no_slope(self):
        """A user 2.5e-162 from the centre: its square underflows, so its
        computed unit vector is 1.125 long.  With a gradient term for it the
        bound exceeds the score at the left edge by 0.125·h."""
        a = 1e-147
        rect = Rect(-a, -a, a, a)
        group = [Point(2.5e-162, 0.0), Point(-2 * a, 0.0), Point(-2 * a, 0.0)]
        lo, hi = rect_arrays(rect)
        key = rect_keyer(SUM, 3)(user_stack(group), lo, hi)[0]
        edge = Point(-a, 0.0)
        assert key <= SUM.combine([edge.distance_to(u) for u in group])

    def test_overflow_falls_back_to_todays_key(self):
        """Squares overflow at the centre but not at the near corner: the
        bound is NaN and the key F of the mindists."""
        rect = Rect(1e150, 0.0, 1e155, 0.0)
        group = [Point(0.0, 0.0), Point(0.0, 0.0)]
        lo, hi = rect_arrays(rect)
        q = user_stack(group)
        with np.errstate(over="ignore", invalid="ignore"):
            assert math.isnan(sum_support_arrays(q, lo, hi)[0])
            key = rect_keyer(SUM, 2)(q, lo, hi)[0]
        assert key == SUM.combine_rows(mindist_arrays(q, lo, hi))[0] == 2e150

    def test_tightens_spread_groups(self):
        """Users around the rectangle: Σ mindist is 1.6, the true minimum 2.0
        (at the centre, where the unit vectors cancel), and the key 2.0 less
        its margin."""
        rect = Rect(0.4, 0.4, 0.6, 0.6)
        group = [Point(0.0, 0.5), Point(1.0, 0.5), Point(0.5, 0.0), Point(0.5, 1.0)]
        lo, hi = rect_arrays(rect)
        q = user_stack(group)
        assert SUM.combine_rows(mindist_arrays(q, lo, hi))[0] < 1.61
        assert 2.0 - 1e-8 < rect_keyer(SUM, 4)(q, lo, hi)[0] <= 2.0

    @settings(max_examples=150, deadline=None)
    @given(st.lists(scaled_rect(), min_size=1, max_size=6), groups)
    def test_other_keys_are_todays_bit_for_bit(self, rects_and_scales, group):
        rects_ = [r for r, _ in rects_and_scales]
        lo = np.array([[[r.xmin] for r in rects_], [[r.ymin] for r in rects_]])
        hi = np.array([[[r.xmax] for r in rects_], [[r.ymax] for r in rects_]])
        q = user_stack(group)
        lower = mindist_arrays(q, lo, hi)
        for aggregate in (MAX, MIN):
            assert rect_keyer(aggregate, len(group))(q, lo, hi).tolist() == (
                aggregate.combine_rows(lower).tolist()
            )
        one = user_stack(group[:1])
        assert rect_keyer(SUM, 1)(one, lo, hi).tolist() == (
            SUM.combine_rows(mindist_arrays(one, lo, hi)).tolist()
        )
        custom = faithful_custom()
        assert rect_keyer(custom, len(group))(q, lo, hi).tolist() == [
            custom.combine(row) for row in lower.tolist()
        ]
