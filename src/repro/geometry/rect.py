"""Axis-aligned rectangle (minimum bounding rectangle)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from repro.errors import ConfigurationError
from repro.geometry.point import Point


@dataclass(frozen=True, slots=True)
class Rect:
    """An axis-aligned rectangle ``[xmin, xmax] x [ymin, ymax]``.

    Used as the MBR node key of the R-tree, the cloak region of the IPPF
    baseline, and the bounds of the :class:`~repro.geometry.space.LocationSpace`.
    Degenerate (zero-area) rectangles are allowed: a single point is the
    rectangle with ``xmin == xmax`` and ``ymin == ymax``.
    """

    xmin: float
    ymin: float
    xmax: float
    ymax: float

    def __post_init__(self) -> None:
        if self.xmin > self.xmax or self.ymin > self.ymax:
            raise ConfigurationError(
                f"invalid rectangle: ({self.xmin}, {self.ymin}, "
                f"{self.xmax}, {self.ymax})"
            )

    @classmethod
    def from_point(cls, p: Point) -> "Rect":
        """The degenerate rectangle covering exactly ``p``."""
        return cls(p.x, p.y, p.x, p.y)

    @classmethod
    def from_points(cls, points: Iterable[Point]) -> "Rect":
        """The minimum bounding rectangle of a non-empty point collection."""
        pts = list(points)
        if not pts:
            raise ConfigurationError("cannot bound an empty point collection")
        xs = [p.x for p in pts]
        ys = [p.y for p in pts]
        return cls(min(xs), min(ys), max(xs), max(ys))

    @property
    def width(self) -> float:
        return self.xmax - self.xmin

    @property
    def height(self) -> float:
        return self.ymax - self.ymin

    @property
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> Point:
        return Point((self.xmin + self.xmax) / 2.0, (self.ymin + self.ymax) / 2.0)

    def contains_point(self, p: Point) -> bool:
        """Whether ``p`` lies inside or on the boundary."""
        return self.xmin <= p.x <= self.xmax and self.ymin <= p.y <= self.ymax

    def contains_rect(self, other: "Rect") -> bool:
        """Whether ``other`` lies entirely inside this rectangle."""
        return (
            self.xmin <= other.xmin
            and self.ymin <= other.ymin
            and other.xmax <= self.xmax
            and other.ymax <= self.ymax
        )

    def intersects(self, other: "Rect") -> bool:
        """Whether the two rectangles share at least a boundary point."""
        return not (
            other.xmin > self.xmax
            or other.xmax < self.xmin
            or other.ymin > self.ymax
            or other.ymax < self.ymin
        )

    def union(self, other: "Rect") -> "Rect":
        """The minimum bounding rectangle of both rectangles."""
        return Rect(
            min(self.xmin, other.xmin),
            min(self.ymin, other.ymin),
            max(self.xmax, other.xmax),
            max(self.ymax, other.ymax),
        )

    def enlargement(self, other: "Rect") -> float:
        """Area growth needed to absorb ``other`` (the R-tree insert metric)."""
        return self.union(other).area - self.area

    def clip(self, other: "Rect") -> "Rect":
        """The intersection rectangle; raises if the rectangles are disjoint."""
        if not self.intersects(other):
            raise ConfigurationError("cannot clip disjoint rectangles")
        return Rect(
            max(self.xmin, other.xmin),
            max(self.ymin, other.ymin),
            min(self.xmax, other.xmax),
            min(self.ymax, other.ymax),
        )
