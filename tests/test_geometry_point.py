"""Unit and property tests for repro.geometry.point."""

import math

from hypothesis import given
from hypothesis import strategies as st

from repro.geometry.point import Point

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
points = st.builds(Point, finite, finite)


class TestPointBasics:
    def test_distance_matches_pythagoras(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == 5.0

    def test_distance_to_self_is_zero(self):
        p = Point(1.5, -2.5)
        assert p.distance_to(p) == 0.0

    def test_squared_distance(self):
        assert Point(0, 0).squared_distance_to(Point(3, 4)) == 25.0

    def test_iter_unpacks(self):
        x, y = Point(3.0, 7.0)
        assert (x, y) == (3.0, 7.0)

    def test_points_are_hashable_and_equal_by_value(self):
        assert {Point(1, 2), Point(1, 2)} == {Point(1, 2)}

    def test_is_finite(self):
        assert Point(0.0, -1e300).is_finite
        assert not Point(math.nan, 0.0).is_finite
        assert not Point(0.0, math.nan).is_finite
        assert not Point(math.inf, 0.0).is_finite
        assert not Point(0.0, -math.inf).is_finite

    def test_lexicographic_ordering(self):
        assert Point(1, 5) < Point(2, 0)
        assert Point(1, 1) < Point(1, 2)


class TestPointProperties:
    @given(points, points)
    def test_distance_symmetry(self, a, b):
        assert math.isclose(a.distance_to(b), b.distance_to(a), abs_tol=1e-12)

    @given(points, points, points)
    def test_triangle_inequality(self, a, b, c):
        assert a.distance_to(c) <= a.distance_to(b) + b.distance_to(c) + 1e-9

    @given(points, points)
    def test_squared_distance_consistency(self, a, b):
        assert math.isclose(
            a.squared_distance_to(b), a.distance_to(b) ** 2, rel_tol=1e-9, abs_tol=1e-9
        )
