"""Planar geometry substrate: points, rectangles, distances, location space.

The paper works in a normalized 2-D metric space (Sequoia POIs normalized to
a square).  This package provides the small set of exact geometric
primitives every other subsystem builds on:

- :class:`~repro.geometry.point.Point` — an immutable 2-D location,
- :class:`~repro.geometry.rect.Rect` — an axis-aligned rectangle (MBR),
- :mod:`~repro.geometry.distance` — Euclidean metrics plus the
  ``mindist`` / ``maxdist`` bounds used by R-tree pruning,
- :class:`~repro.geometry.space.LocationSpace` — the bounded data space with
  area computation and uniform sampling (used by dummy generation and by the
  Monte-Carlo answer sanitation).
"""

from repro.geometry.distance import (
    euclidean,
    maxdist_point_rect,
    mindist_point_rect,
)
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.space import LocationSpace

__all__ = [
    "Point",
    "Rect",
    "LocationSpace",
    "euclidean",
    "mindist_point_rect",
    "maxdist_point_rect",
]
