"""Common interface for spatial indexes over (Point, item) pairs."""

from __future__ import annotations

import itertools
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.geometry.rect import Rect


@dataclass
class IndexCounters:
    """Exact per-engine work counters.

    A serving bucket publishes its engine's counters as the ``index.*``
    metrics when it closes.

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


class TraversalNode:
    """A synthetic best-first traversal node for non-tree indexes.

    Matches the node protocol of the R-tree (``is_leaf`` / ``points`` /
    ``items`` / ``children`` / ``mbr``), so an index without a native node
    hierarchy can still expose :meth:`SpatialIndex.traversal_roots` by
    wrapping its buckets.
    """

    __slots__ = ("is_leaf", "points", "items", "children", "mbr")

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


#: Numbers every :class:`FlatView` this process builds, in build order.
_view_tokens = itertools.count(1)


class FlatView:
    """A whole traversal hierarchy as a few flat numpy arrays.

    Nodes are numbered breadth-first from the roots, so the children of an
    inner node take consecutive numbers in their stored order, and so do
    the entries of a leaf.  A node without an MBR (an empty root or child)
    is left out.

    Attributes
    ----------
    version:
        The index :attr:`~SpatialIndex.version` the view was built at.
    token:
        A number no other view of this process has, so another process
        holding a copy of the arrays can tell which view they are: an
        ``id`` is reused after collection, and every new index restarts
        ``version`` at 0.
    nodes:
        The traversal nodes in flat order; a result entry resolves to
        ``nodes[leaf].points[i]`` and ``nodes[leaf].items[i]``, so the view
        keeps no second copy of the entry lists.
    roots:
        The number of roots; they are nodes ``0 .. roots - 1``.
    rects:
        Node MBRs, shape ``(4, nodes, 1)``, rows ``xmin``, ``ymin``,
        ``xmax``, ``ymax``: ``[:2]`` and ``[2:]`` stack the corners, and
        the trailing axis broadcasts against stacked query locations.
    leaf:
        Whether each node is a leaf.
    first, count:
        An inner node's children are nodes ``first .. first + count - 1``;
        a leaf's entries are entries ``first .. first + count - 1``.
    xy:
        Entry coordinates, shape ``(2, entries, 1)``, leaf by leaf in flat
        order.
    """

    __slots__ = ("version", "token", "nodes", "roots", "rects", "leaf", "first", "count", "xy")

    def __init__(self, roots: Sequence, version: int) -> None:
        nodes = [root for root in roots if root.mbr is not None]
        self.roots = len(nodes)
        first: list[int] = []
        count: list[int] = []
        entries = 0
        # Breadth-first: the loop reaches the children it appends.
        for node in nodes:
            if node.is_leaf:
                first.append(entries)
                count.append(len(node.points))
                entries += len(node.points)
            else:
                children = [child for child in node.children if child.mbr is not None]
                first.append(len(nodes))
                count.append(len(children))
                nodes.extend(children)
        self.version = version
        self.token = next(_view_tokens)
        self.nodes = nodes
        self.leaf = np.array([node.is_leaf for node in nodes], dtype=bool)
        self.first = np.array(first, dtype=np.intp)
        self.count = np.array(count, dtype=np.intp)
        self.rects = np.empty((4, len(nodes), 1))
        for row, attr in enumerate(("xmin", "ymin", "xmax", "ymax")):
            self.rects[row, :, 0] = [getattr(node.mbr, attr) for node in nodes]
        # Leaf by leaf: no list of every coordinate is built on the way.
        self.xy = np.empty((2, entries, 1))
        for node, start in zip(nodes, first, strict=True):
            if node.is_leaf:
                stop = start + len(node.points)
                self.xy[0, start:stop, 0] = [p.x for p in node.points]
                self.xy[1, start:stop, 0] = [p.y for p in node.points]


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
    #: caches keyed on ``(version, query)`` and the :class:`FlatView` cached
    #: by :meth:`flat_view` invalidate automatically.
    version: int = 0
    _flat_view: FlatView | None = None

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
        ``points``/``items`` on leaves, ``children`` on inner nodes, and an
        ``mbr`` that bounds everything beneath).  Query algorithms fall
        back to an exhaustive sorted scan over :meth:`entries` when this
        returns None, so non-hierarchical indexes stay exact.
        """
        return None

    def flat_view(self) -> FlatView | None:
        """The :meth:`traversal_roots` hierarchy as one :class:`FlatView`.

        Built on the first call after a mutation and kept, stamped with
        :attr:`version`, until the next one: every mutation bumps the
        version, so inserts and deletes need no other bookkeeping.  None
        when :meth:`traversal_roots` is.
        """
        view = self._flat_view
        if view is None or view.version != self.version:
            roots = self.traversal_roots()
            if roots is None:
                return None
            view = self._flat_view = FlatView(roots, self.version)
        return view

    def __bool__(self) -> bool:
        return len(self) > 0
