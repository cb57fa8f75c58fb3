"""Common interface for spatial indexes over (Point, item) pairs."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.geometry.rect import Rect


@dataclass
class IndexCounters:
    """Exact per-engine work counters, published as ``index.*`` metrics.

    ``candidates_scored`` counts entries of expanded leaves examined (every
    entry, for exhaustive scans) — the measure of per-query candidate
    work, and the counter the index-scale perf baseline gates.  A search
    may bound such entries in bulk and score only those that can still
    reach the answer.
    ``nodes_visited`` counts tree nodes expanded by hierarchical searches
    (always 0 for flat indexes).
    """

    queries: int = 0
    nodes_visited: int = 0
    candidates_scored: int = 0

    def merge(self, other: "IndexCounters") -> None:
        """Fold another engine's counters into this one (cluster roll-up)."""
        self.queries += other.queries
        self.nodes_visited += other.nodes_visited
        self.candidates_scored += other.candidates_scored


class TraversalNode:
    """A synthetic best-first traversal node for non-tree indexes.

    Matches the node protocol of the R-tree (``is_leaf`` / ``points`` /
    ``items`` / ``children`` / ``mbr`` / ``arrays``), so an index without a
    native node hierarchy can still expose
    :meth:`SpatialIndex.traversal_roots` by wrapping its buckets.
    """

    __slots__ = ("is_leaf", "points", "items", "children", "mbr", "arrays")

    def __init__(
        self,
        is_leaf: bool,
        points: list[Point] | None = None,
        items: list[Any] | None = None,
        children: list | None = None,
        mbr: Rect | None = None,
    ) -> None:
        self.is_leaf = is_leaf
        self.points = points if points is not None else []
        self.items = items if items is not None else []
        self.children = children if children is not None else []
        self.mbr = mbr
        self.arrays: tuple[int, np.ndarray] | None = None


_NO_MBR = Rect(0.0, 0.0, 0.0, 0.0)


def mbr_array(nodes: Sequence) -> np.ndarray:
    """The MBRs of ``nodes`` as one ``(4, len(nodes), 1)`` float array.

    Rows are ``xmin``, ``ymin``, ``xmax``, ``ymax``, so ``[:2]`` and ``[2:]``
    stack the low and high corners, and the trailing axis broadcasts
    against a ``(2, 1, n)`` stack of query locations.  A node without an
    MBR gets a zero column, which searches must skip on ``node.mbr is None``.
    """
    rects = [_NO_MBR if n.mbr is None else n.mbr for n in nodes]
    array = np.empty((4, len(rects), 1))
    array[0, :, 0] = [r.xmin for r in rects]
    array[1, :, 0] = [r.ymin for r in rects]
    array[2, :, 0] = [r.xmax for r in rects]
    array[3, :, 0] = [r.ymax for r in rects]
    return array


def node_arrays(node, version: int) -> np.ndarray:
    """A traversal node's entries as one float array, built on first visit.

    A leaf gives its point coordinates, shape ``(2, len(points), 1)`` with
    rows ``x`` and ``y``; an inner node gives :func:`mbr_array` of its
    children.  The array is cached in the node's ``arrays`` slot, stamped
    with the index ``version`` it was built at.  Every mutation bumps the
    version, so a node changed by an insert or delete is rebuilt on its
    next visit and the index needs no other bookkeeping.
    """
    cached = node.arrays
    if cached is not None and cached[0] == version:
        return cached[1]
    if node.is_leaf:
        array = np.empty((2, len(node.points), 1))
        array[0, :, 0] = [p.x for p in node.points]
        array[1, :, 0] = [p.y for p in node.points]
    else:
        array = mbr_array(node.children)
    node.arrays = (version, array)
    return array


def validate_location(location: Point) -> Point:
    """Reject non-finite coordinates with one consistent error.

    Every index calls this on insert and bulk load, and the query engine on
    every query location, so NaN/inf inputs fail identically regardless of
    which index backs the engine (a NaN would otherwise poison comparisons
    silently in some indexes and raise obscurely in others).
    """
    if not location.is_finite:
        raise ConfigurationError(f"non-finite location {location}")
    return location


def validate_entries(items: Iterable[tuple[Point, Any]]) -> list[tuple[Point, Any]]:
    """Materialize and validate a bulk-load entry iterable."""
    pairs = []
    for location, item in items:
        if not location.is_finite:
            raise ConfigurationError(f"non-finite location {location}")
        pairs.append((location, item))
    return pairs


class SpatialIndex(ABC):
    """A container of ``(location, item)`` entries supporting spatial queries.

    ``item`` is opaque to the index (the LSP stores POI objects).  All
    indexes in this package implement the same minimal surface so query
    algorithms (kNN, MBM kGNN) and tests can swap them freely.

    Duplicate *locations* are allowed everywhere (two POIs may share one
    coordinate); duplicate identical ``(location, item)`` entries are kept
    as distinct entries, matching insertion-order semantics.  Non-finite
    locations are rejected consistently via :func:`validate_location`.
    """

    #: Monotone mutation counter: every content change bumps it, so result
    #: caches keyed on ``(version, query)`` and the node arrays cached by
    #: :func:`node_arrays` invalidate automatically.
    version: int = 0

    @abstractmethod
    def insert(self, location: Point, item: Any) -> None:
        """Add one entry."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of stored entries."""

    @abstractmethod
    def entries(self) -> Iterator[tuple[Point, Any]]:
        """Iterate over all ``(location, item)`` entries in arbitrary order."""

    @abstractmethod
    def range_query(self, rect: Rect) -> list[tuple[Point, Any]]:
        """All entries whose location falls inside ``rect`` (inclusive)."""

    @abstractmethod
    def bulk_load(self, items: Iterable[tuple[Point, Any]]) -> None:
        """Load many entries; replaces the current contents.

        Every entry is validated before any is stored, so a NaN halfway
        through ``items`` leaves the index unchanged.
        """

    @abstractmethod
    def delete(self, location: Point, item: Any) -> bool:
        """Remove one entry matching ``(location, item)``, in place.

        Returns True when an entry was removed; of several identical
        entries, only one goes.  A removal bumps :attr:`version`.
        """

    def traversal_roots(self) -> list | None:
        """Best-first traversal hook: root node(s), or None when unavailable.

        Returned nodes follow the R-tree node protocol (``is_leaf``,
        ``points``/``items`` on leaves, ``children`` on inner nodes, an
        ``mbr`` that bounds everything beneath, and an ``arrays`` slot,
        initially None, where :func:`node_arrays` caches the node's numpy
        view against this index's ``version``).  Query algorithms fall
        back to an exhaustive sorted scan over :meth:`entries` when this
        returns None, so non-hierarchical indexes stay exact.
        """
        return None

    def __bool__(self) -> bool:
        return len(self) > 0
