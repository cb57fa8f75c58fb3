"""Distance functions between points and rectangles.

The library has one Euclidean distance, ``sqrt(dx*dx + dy*dy)``, in a
scalar form (``math.sqrt``) and a numpy form (:func:`euclidean_norm`).  Both
round ``dx`` and ``dy`` once each, then two products, one sum and a
correctly rounded square root, in the same order, so the two forms return
the identical float for every input.  That is what lets the MBM walk and
the answer sanitation compute in numpy and still match the scalar oracle
bit for bit.  Nothing in the library calls ``hypot``: ``math.hypot`` and
``np.hypot`` disagree with each other on about 0.6% of inputs.

Besides the plain metric the query engine needs the two classic R-tree
bounds:

- ``mindist(p, R)`` — the smallest possible distance between ``p`` and any
  point of rectangle ``R`` (lower bound used for best-first pruning),
- ``maxdist(p, R)`` — the largest possible distance (upper bound, used by
  the IPPF baseline's candidate filtering).

Floating-point rounding is monotone, so for every point ``q`` inside ``R``
the computed ``mindist(p, R) <= p.distance_to(q) <= maxdist(p, R)`` holds
exactly, not just up to rounding.

For the sum of distances to a group, :func:`sum_support_arrays` gives a
second lower bound over a rectangle, from the supporting line of the convex
sum at the rectangle's centre.  It is tight where Σ mindist is loose, around
a spread group, and holds in floats through an explicit margin rather than
monotone rounding.

Vectorized variants operating on numpy arrays are provided for the MBM walk
and the Monte-Carlo answer sanitation, which evaluates tens of thousands of
candidate locations per hypothesis test.
"""

from __future__ import annotations

import math

import numpy as np

from repro.geometry.point import Point
from repro.geometry.rect import Rect


def euclidean(a: Point, b: Point) -> float:
    """Euclidean distance between two points (:meth:`Point.distance_to`)."""
    return a.distance_to(b)


def mindist_point_rect(p: Point, r: Rect) -> float:
    """Smallest distance from ``p`` to any point inside ``r``.

    Zero when ``p`` lies inside the rectangle.
    """
    dx = max(r.xmin - p.x, 0.0, p.x - r.xmax)
    dy = max(r.ymin - p.y, 0.0, p.y - r.ymax)
    return math.sqrt(dx * dx + dy * dy)


def maxdist_point_rect(p: Point, r: Rect) -> float:
    """Largest distance from ``p`` to any point inside ``r``.

    Attained at one of the rectangle corners.
    """
    dx = max(p.x - r.xmin, r.xmax - p.x)
    dy = max(p.y - r.ymin, r.ymax - p.y)
    return math.sqrt(dx * dx + dy * dy)


def euclidean_norm(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """``sqrt(dx*dx + dy*dy)`` elementwise: the numpy form of the one distance."""
    return np.sqrt(dx * dx + dy * dy)


def stacked_norm(d: np.ndarray) -> np.ndarray:
    """:func:`euclidean_norm` of ``d[0]`` and ``d[1]``, squared in one pass."""
    squares = d * d
    return np.sqrt(squares[0] + squares[1])


def mindist_arrays(p: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """:func:`mindist_point_rect` elementwise over stacked, broadcast arrays.

    ``p`` stacks point coordinates ``(x, y)``; ``lo`` and ``hi`` stack the
    rectangle corners ``(xmin, ymin)`` and ``(xmax, ymax)``.
    """
    return stacked_norm(np.maximum(np.maximum(lo - p, 0.0), p - hi))


def maxdist_arrays(p: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """:func:`maxdist_point_rect` elementwise, stacked as in :func:`mindist_arrays`."""
    return stacked_norm(np.maximum(p - lo, hi - p))


#: Users closer than this to a rectangle's centre get no gradient term; the
#: margin's absolute part covers the distance they contribute (see below).
_GRADIENT_FLOOR = 1e-151


def sum_support_arrays(p: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """A lower bound on ``Σ_i |x − p_i|`` over every point ``x`` of each rectangle.

    ``p`` stacks the n points as ``(2, 1, n)``; ``lo`` and ``hi`` stack m
    rectangles' corners as ``(2, m, 1)``.  Returns one bound per rectangle.

    The sum is convex, so its supporting line at the rectangle's computed
    centre ``c`` lies below it: ``f(x) >= f(c) + g·(x − c)`` with
    ``g = Σ_i (c − p_i)/|c − p_i|``.  Over the rectangle, ``|x − c|`` is at
    most ``h = max(c − lo, hi − c)`` per axis, measured from that ``c``
    (half of ``hi − lo`` can miss the rounded centre's offset), so
    ``f(x) >= f(c) − |g_x|·h_x − |g_y|·h_y``.  The bound is tight where
    the group's unit vectors cancel, as they do around a spread group,
    where Σ mindist is loose.

    A user within ``_GRADIENT_FLOOR`` of ``c`` gets no gradient term, since
    underflow can bend its unit vector; the bound ``|x − p_i| >= 0`` holds
    for it instead.  The margin ``1e-9·(f(c) + n·(h_x + h_y)) + n·1e-150``
    covers every rounding of this computation and of the scores it must
    stay below: relative errors are ~n·1e-16 of ``f(c) + n·|x − c|``, and
    underflowed squares or floored users add at most ~1e-151 each.  Every
    subtracted term is non-negative and the margin grows with ``f(c)``, so
    an overflowed ``f(c)`` gives NaN (``inf − inf``), never ``+inf``.
    """
    c = (lo + hi) * 0.5
    h = np.maximum(c - lo, hi - c)[..., 0]
    diff = c - p
    d = stacked_norm(diff)
    g = (diff / np.where(d > _GRADIENT_FLOOR, d, np.inf)).sum(axis=2)
    n = p.shape[-1]
    fc = d.sum(axis=1)
    # The margin grows with f(c), so an overflowed f(c) gives inf − inf.
    margin = 1e-9 * (fc + n * (h[0] + h[1])) + n * 1e-150
    return fc - (np.abs(g) * h).sum(axis=0) - margin


def pairwise_distances(xs: np.ndarray, ys: np.ndarray, p: Point) -> np.ndarray:
    """Euclidean distances from many points ``(xs[i], ys[i])`` to ``p``.

    ``xs`` and ``ys`` are equal-length 1-D float arrays; the result is a 1-D
    array of the same length, entry ``i`` equal to
    ``Point(xs[i], ys[i]).distance_to(p)``.
    """
    return euclidean_norm(xs - p.x, ys - p.y)


def distance_matrix(xs: np.ndarray, ys: np.ndarray, points: list[Point]) -> np.ndarray:
    """Distances from many sample locations to many fixed points.

    Returns an array of shape ``(len(xs), len(points))`` where entry
    ``[i, j]`` is the distance from sample ``i`` to ``points[j]``.
    """
    px = np.array([q.x for q in points], dtype=np.float64)
    py = np.array([q.y for q in points], dtype=np.float64)
    return euclidean_norm(xs[:, None] - px[None, :], ys[:, None] - py[None, :])
