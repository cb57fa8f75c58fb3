"""Unit and property tests for repro.geometry.rect."""


import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.geometry.rect import Rect

coord = st.floats(min_value=-100, max_value=100, allow_nan=False)


@st.composite
def rects(draw):
    x1, x2 = sorted((draw(coord), draw(coord)))
    y1, y2 = sorted((draw(coord), draw(coord)))
    return Rect(x1, y1, x2, y2)


points = st.builds(Point, coord, coord)


class TestRectConstruction:
    def test_invalid_bounds_rejected(self):
        with pytest.raises(ConfigurationError):
            Rect(1, 0, 0, 1)
        with pytest.raises(ConfigurationError):
            Rect(0, 1, 1, 0)

    def test_from_point_is_degenerate(self):
        r = Rect.from_point(Point(2, 3))
        assert r.area == 0.0
        assert r.contains_point(Point(2, 3))

    def test_from_points_bounds_all(self):
        pts = [Point(0, 0), Point(2, 1), Point(-1, 3)]
        r = Rect.from_points(pts)
        assert all(r.contains_point(p) for p in pts)
        assert r == Rect(-1, 0, 2, 3)

    def test_from_points_empty_raises(self):
        with pytest.raises(ConfigurationError):
            Rect.from_points([])


class TestRectGeometry:
    def test_measures(self):
        r = Rect(0, 0, 2, 3)
        assert r.width == 2 and r.height == 3
        assert r.area == 6
        assert r.center == Point(1, 1.5)

    def test_containment_boundary_inclusive(self):
        r = Rect(0, 0, 1, 1)
        assert r.contains_point(Point(0, 0))
        assert r.contains_point(Point(1, 1))
        assert not r.contains_point(Point(1.0001, 0.5))

    def test_contains_rect(self):
        outer = Rect(0, 0, 10, 10)
        assert outer.contains_rect(Rect(1, 1, 2, 2))
        assert not Rect(1, 1, 2, 2).contains_rect(outer)

    def test_intersects_touching_edges(self):
        assert Rect(0, 0, 1, 1).intersects(Rect(1, 0, 2, 1))
        assert not Rect(0, 0, 1, 1).intersects(Rect(1.01, 0, 2, 1))

    def test_clip(self):
        assert Rect(0, 0, 2, 2).clip(Rect(1, 1, 3, 3)) == Rect(1, 1, 2, 2)
        with pytest.raises(ConfigurationError):
            Rect(0, 0, 1, 1).clip(Rect(5, 5, 6, 6))


class TestRectProperties:
    @given(rects(), rects())
    def test_union_contains_both(self, a, b):
        u = a.union(b)
        assert u.contains_rect(a) and u.contains_rect(b)

    @given(rects(), rects())
    def test_union_commutative(self, a, b):
        assert a.union(b) == b.union(a)

    @given(rects(), rects())
    def test_enlargement_nonnegative(self, a, b):
        assert a.enlargement(b) >= -1e-9

    @given(rects(), points)
    def test_point_in_rect_iff_in_union_with_it(self, r, p):
        u = r.union(Rect.from_point(p))
        assert u.contains_point(p)

    @given(rects(), rects())
    def test_intersection_symmetric(self, a, b):
        assert a.intersects(b) == b.intersects(a)

    @given(rects(), rects())
    def test_clip_inside_both(self, a, b):
        if a.intersects(b):
            c = a.clip(b)
            assert a.contains_rect(c) and b.contains_rect(c)
