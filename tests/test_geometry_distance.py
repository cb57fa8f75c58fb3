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
    squared_euclidean,
)
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.gnn.aggregate import MAX, MIN, SUM
from repro.gnn.mbm import mbm_kgnn
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

    def test_squared(self):
        assert squared_euclidean(Point(1, 1), Point(4, 5)) == 25.0

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
