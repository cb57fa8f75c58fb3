"""Immutable 2-D point."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator


@dataclass(frozen=True, slots=True, order=True)
class Point:
    """A location in the 2-D plane.

    Points are immutable, hashable, and ordered lexicographically, which
    makes them usable as dictionary keys (e.g. POI lookup tables) and
    directly sortable for deterministic tie-breaking.
    """

    x: float
    y: float

    @property
    def is_finite(self) -> bool:
        """True when both coordinates are finite (no NaN, no ±∞)."""
        return math.isfinite(self.x) and math.isfinite(self.y)

    def distance_to(self, other: "Point") -> float:
        """Euclidean distance to ``other``: ``sqrt(dx*dx + dy*dy)``.

        The one distance of the library (see :mod:`repro.geometry.distance`):
        its numpy form gives the identical float.
        """
        dx = self.x - other.x
        dy = self.y - other.y
        return math.sqrt(dx * dx + dy * dy)

    def squared_distance_to(self, other: "Point") -> float:
        """Squared Euclidean distance (avoids the sqrt when only comparing)."""
        dx = self.x - other.x
        dy = self.y - other.y
        return dx * dx + dy * dy

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y
