"""Minimum Bounding Method (MBM) for group kNN queries [24].

MBM generalizes best-first kNN to a *group* of query locations: a tree node
is ranked by ``F(mindist(MBR, l_1), ..., mindist(MBR, l_n))``.  Because F
is monotonically increasing and ``mindist`` lower-bounds every real
distance from any point inside the MBR, this value lower-bounds the
aggregate cost of every POI under the node, so best-first search remains
exact.  This is the plaintext kGNN black box the LSP runs for every
candidate query (Algorithm 2 line 3).

For ``sum`` and two or more users that bound is loose around a spread
group: every user's mindist can be small while no point is near all of
them.  An aggregate may carry a tighter exact bound (``rect_bound``);
``sum`` carries the supporting line of its convex cost at the MBR's
centre (:func:`~repro.geometry.distance.sum_support_arrays`).  A node's
key is then the larger of the two bounds, still at most the cost of every
POI under it.  MAX, MIN, custom aggregates and single users keep F of the
mindists.

Like :mod:`repro.gnn.knn` the search is index-agnostic: it walks the
:meth:`~repro.index.base.SpatialIndex.flat_view` of whatever hierarchy
:meth:`~repro.index.base.SpatialIndex.traversal_roots` exposes, and falls
back to scoring every entry exhaustively for flat indexes — identical
answers, different work, both metered through the optional
:class:`~repro.index.base.IndexCounters`.

:func:`mbm_kgnn_many` answers a batch of groups (the δ′ candidates of one
request) in one walk of rounds over the flat view.  Each round, every
group expands its best pending nodes whose key is at most its current
k-th score, ``kth``: child keys come from :func:`rect_keyer` and leaf
scores from the aggregate's rows, each on one stacked array per round.
Every entry that can reach a group's top k is scored, so the result is
exact; the rounds only change how many nodes are expanded (see DESIGN.md,
"kGNN hot path").  :func:`mbm_kgnn` is its one-group call.

A same-size batch of two or more groups under a built-in aggregate is
walked on two cores where the host allows it
(:func:`repro.crypto.cores.kgnn_halves`): the caller walks the head
half, ``ceil(groups / 2)`` of them, and the second-core helper the tail
half, on its own read-only copy of the view's arrays
(:func:`view_arrays`, :class:`WalkedArrays`), sent once per view.  The
walk reads only those arrays and returns ``(group, leaf, position,
score)`` rows, and only the caller resolves rows to POIs, through
``view.nodes``, so one walk serves both processes.  Each half counts its
own work and the caller adds the counts once, so answers, tie order and
counters are those of one walk; only wall time moves.  One-group calls,
custom aggregates and indexes without a flat view stay inline.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Any, Callable, Sequence

import numpy as np

from repro.crypto import cores
from repro.errors import ConfigurationError, positive_int
from repro.geometry.distance import mindist_arrays, stacked_norm
from repro.geometry.point import Point
from repro.gnn.aggregate import MAX, MIN, SUM, Aggregate
from repro.index.base import FlatView, IndexCounters, SpatialIndex

#: Aggregates whose ``combine_rows`` equals ``combine`` bit for bit.
_VECTOR_AGGREGATES = (SUM, MAX, MIN)

#: Pending nodes a group expands per round: the first entry while it holds
#: fewer than k candidates, then one entry further each round; the last
#: takes every remaining node.  Small rounds let ``kth`` tighten before the
#: frontier widens.
_BUDGETS = np.array((2, 2, 4, 8, 16, 64, np.iinfo(np.intp).max))

Ranked = list[tuple[Point, Any, float]]

#: One ranked entry of a walk: its group's index in the walked batch, its
#: leaf's flat node number, its position in that leaf, and its score.
Row = tuple[int, int, int, float]

#: The arrays of a :class:`~repro.index.base.FlatView` the walk reads,
#: besides ``roots``.
_WALKED = ("rects", "leaf", "first", "count", "xy")


def _fallback_kgnn(
    tree: SpatialIndex,
    locations: Sequence[Point],
    k: int,
    aggregate: Aggregate,
    counters: IndexCounters | None,
) -> Ranked:
    """Score every entry; same ordering contract as the walk."""
    ranked = sorted(
        (aggregate(p.distance_to(q) for q in locations), (p.x, p.y), i, p, item)
        for i, (p, item) in enumerate(tree.entries())
    )
    if counters is not None:
        counters.candidates_scored += len(ranked)
    return [(p, item, score) for score, _, _, p, item in ranked[:k]]


def _row_scorer(aggregate: Aggregate):
    """F over each row of an ``(entries, n)`` distance matrix."""
    if aggregate in _VECTOR_AGGREGATES:
        return aggregate.combine_rows
    return lambda dists: np.array([aggregate.combine(row) for row in dists.tolist()])


def rect_keyer(aggregate: Aggregate, n: int):
    """The walk's key function for rectangles, for groups of ``n`` users.

    Maps stacked users ``q``, ``(2, 1, n)`` for one group or ``(2, m, n)``
    for one group per rectangle, and rectangle corners ``lo``, ``hi``
    ``(2, m, 1)`` to an array of m keys: F of the users' mindists [24],
    raised to the aggregate's ``rect_bound`` where it has one and n >= 2
    (one user's mindist is already its exact minimum over the rectangle).
    ``np.fmax`` keeps F of the mindists where that bound is NaN.  Both
    lower-bound the cost of every point inside.
    """
    score = _row_scorer(aggregate)
    bound = aggregate.rect_bound if n > 1 else None
    if bound is None:
        return lambda q, lo, hi: score(mindist_arrays(q, lo, hi))
    return lambda q, lo, hi: np.fmax(score(mindist_arrays(q, lo, hi)), bound(q, lo, hi))


def _ranges(first: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranges ``first[i] .. first[i] + count[i] - 1`` concatenated.

    Returns the ids and, for each, the index ``i`` of its range.
    """
    owner = np.repeat(np.arange(len(count)), count)
    ids = np.arange(len(owner)) + np.repeat(first - (np.cumsum(count) - count), count)
    return ids, owner


def _ranks(sorted_groups: np.ndarray) -> np.ndarray:
    """Each element's position within its run of a sorted group-id array."""
    return np.arange(len(sorted_groups)) - np.searchsorted(sorted_groups, sorted_groups)


def _walk(
    view: FlatView | WalkedArrays,
    q: np.ndarray,
    k: int,
    aggregate: Aggregate,
    counters: IndexCounters | None,
) -> list[Row]:
    """The batched best-first walk over the groups of ``q``, users stacked
    ``(2, groups, n)``: each group's top ``k`` as rows, group by group in
    rank order.

    Reads only the view's arrays, never its nodes, so a copy of them in
    another process walks alike.
    """
    score = _row_scorer(aggregate)
    rect_keys = rect_keyer(aggregate, q.shape[2])

    def node_keys(g: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        rects = view.rects[:, nodes]
        return rect_keys(q[:, g], rects[:2], rects[2:])

    groups = q.shape[1]
    kth = np.full(groups, np.inf)
    stage = np.zeros(groups, dtype=np.intp)
    # Pending nodes, one (group, node, key) per row.
    pend_g = np.repeat(np.arange(groups), view.roots)
    pend_n = np.tile(np.arange(view.roots), groups)
    pend_k = node_keys(pend_g, pend_n)
    # Candidate entries, one (group, entry, score) per row, each at most
    # its group's kth.
    cand_g = cand_e = np.empty(0, dtype=np.intp)
    cand_s = np.empty(0)
    while True:
        # Each group's best pending nodes, up to its budget.  kth only
        # falls, so a node keyed above it is dropped for good.
        stage = np.minimum(stage + np.isfinite(kth), len(_BUDGETS) - 1)
        order = np.lexsort((pend_k, pend_g))
        sorted_g = pend_g[order]
        live = pend_k[order] <= kth[sorted_g]
        within = _ranks(sorted_g) < _BUDGETS[stage[sorted_g]]
        take, rest = order[live & within], order[live & ~within]
        if not len(take):
            break
        node, node_g = pend_n[take], pend_g[take]
        pend_g, pend_n, pend_k = pend_g[rest], pend_n[rest], pend_k[rest]
        ids, owner = _ranges(view.first[node], view.count[node])
        ids_g = node_g[owner]
        at_leaf = view.leaf[node][owner]
        children, child_g = ids[~at_leaf], ids_g[~at_leaf]
        entries, entry_g = ids[at_leaf], ids_g[at_leaf]
        if counters is not None:
            counters.nodes_visited += len(node)
            counters.candidates_scored += len(entries)
        child_k = node_keys(child_g, children)
        fits = child_k <= kth[child_g]
        pend_g = np.concatenate((pend_g, child_g[fits]))
        pend_n = np.concatenate((pend_n, children[fits]))
        pend_k = np.concatenate((pend_k, child_k[fits]))
        scores = score(stacked_norm(view.xy[:, entries] - q[:, entry_g]))
        fits = scores <= kth[entry_g]
        cand_g = np.concatenate((cand_g, entry_g[fits]))
        cand_e = np.concatenate((cand_e, entries[fits]))
        cand_s = np.concatenate((cand_s, scores[fits]))
        # The k-th smallest score of each group holding k candidates.
        order = np.lexsort((cand_s, cand_g))
        at = order[_ranks(cand_g[order]) == k - 1]
        kth[cand_g[at]] = cand_s[at]
        fits = cand_s <= kth[cand_g]
        cand_g, cand_e, cand_s = cand_g[fits], cand_e[fits], cand_s[fits]
    # Rank by (score, x, y).  Entries tied on all three (two POIs at one
    # location) follow their leaves' (key, corner), then flat order: the
    # order in which a one-group best-first heap pops those leaves.
    leaves = np.flatnonzero(view.leaf)
    cand_l = leaves[np.searchsorted(view.first[leaves], cand_e, side="right") - 1]
    corners = view.rects[:2, cand_l, 0]
    x, y = view.xy[:, cand_e, 0]
    order = np.lexsort(
        (cand_e, corners[1], corners[0], node_keys(cand_g, cand_l), y, x, cand_s, cand_g)
    )
    top = order[_ranks(cand_g[order]) < k]
    return list(
        zip(
            cand_g[top].tolist(),
            cand_l[top].tolist(),
            (cand_e[top] - view.first[cand_l[top]]).tolist(),
            cand_s[top].tolist(),
            strict=True,
        )
    )


def _counted_walk(
    view: FlatView | WalkedArrays, q: np.ndarray, k: int, aggregate: Aggregate
) -> tuple[list[Row], int, int]:
    """:func:`_walk` on counters of its own: its rows, the nodes it
    expanded and the entries it scored."""
    counters = IndexCounters()
    rows = _walk(view, q, k, aggregate, counters)
    return rows, counters.nodes_visited, counters.candidates_scored


def _walk_parts(
    view: FlatView,
    q: np.ndarray,
    k: int,
    aggregate: Aggregate,
    counters: IndexCounters | None,
) -> list[tuple[int, list[Row]]]:
    """The rows of the batch ``q``, in parts, each with its first group's
    index in the batch.

    Two or more groups under a built-in aggregate are walked in two
    halves, the caller's the larger, with the tail half on the second-core
    helper (:func:`repro.crypto.cores.kgnn_halves`); each half counts its
    own work and the counts are added here once, whichever process walked
    it.  Otherwise, and when the helper may not run, the batch is one walk.
    """
    count = q.shape[1]
    if count >= 2 and aggregate in _VECTOR_AGGREGATES:
        half = (count + 1) // 2
        parts = (q[:, :half], q[:, half:])
        halves = cores.kgnn_halves(
            view.token,
            partial(view_arrays, view),
            lambda: (_VECTOR_AGGREGATES.index(aggregate), k, parts[1].tolist()),
            lambda index: _counted_walk(view, parts[index], k, aggregate),
        )
        if halves is not None:
            if counters is not None:
                for _, nodes, entries in halves:
                    counters.nodes_visited += nodes
                    counters.candidates_scored += entries
            return [(0, halves[0][0]), (half, halves[1][0])]
    return [(0, _walk(view, q, k, aggregate, counters))]


def view_arrays(view: FlatView) -> tuple[tuple, list[memoryview]]:
    """The arrays :func:`_walk` reads, for another process: their layout as
    plain values (``roots``, and each array's shape and dtype), and a byte
    view of each array's memory, to be written after the layout uncopied."""
    arrays = [np.ascontiguousarray(getattr(view, name)) for name in _WALKED]
    layout = (view.roots, tuple((array.shape, array.dtype.str) for array in arrays))
    return layout, [memoryview(array).cast("B") for array in arrays]


class WalkedArrays:
    """The arrays of a :class:`~repro.index.base.FlatView` that the walk
    reads, rebuilt read-only in another process from the layout of
    :func:`view_arrays` and the bytes ``read(size)`` returns."""

    __slots__ = ("roots", *_WALKED)

    def __init__(self, layout: Sequence, read: Callable[[int], bytes]) -> None:
        self.roots, shapes = layout
        for name, (shape, dtype) in zip(_WALKED, shapes, strict=True):
            data = read(math.prod(shape) * np.dtype(dtype).itemsize)
            setattr(self, name, np.frombuffer(data, dtype=dtype).reshape(shape))


def helper_walk(view: WalkedArrays, body: Sequence) -> Callable[[], tuple[list[Row], int, int]]:
    """The second-core helper's side of a ``"kgnn"`` request: the walk of
    its groups over the helper's copy of the view.

    ``body`` is the request's built-in aggregate index, ``k`` and the
    groups' coordinates, stacked ``(2, groups, n)`` as nested lists.
    """
    aggregate, k, groups = body
    return partial(_counted_walk, view, np.array(groups), k, _VECTOR_AGGREGATES[aggregate])


def mbm_kgnn_many(
    tree: SpatialIndex,
    groups: Sequence[Sequence[Point]],
    k: int,
    aggregate: Aggregate,
    counters: IndexCounters | None = None,
) -> list[Ranked]:
    """Exact top-``k`` group nearest neighbors of every group, in one walk.

    Returns one list per group, as :func:`mbm_kgnn` would for it alone.
    Groups of different sizes are walked separately, one walk per size,
    and a walk of two or more groups may run on two cores (module
    docstring).
    """
    k = positive_int(k, "k")
    if not all(groups):
        raise ConfigurationError("kGNN query needs at least one location")
    view = tree.flat_view()
    if view is None:
        return [_fallback_kgnn(tree, g, k, aggregate, counters) for g in groups]
    by_size: dict[int, list[int]] = {}
    for i, group in enumerate(groups):
        by_size.setdefault(len(group), []).append(i)
    results: list[Ranked] = [[] for _ in groups]
    for members in by_size.values():
        # Users stacked (2, groups, n); q[:, g] lines one group up per row.
        batch = [groups[i] for i in members]
        q = np.array([[[p.x for p in g] for g in batch], [[p.y for p in g] for g in batch]])
        for offset, rows in _walk_parts(view, q, k, aggregate, counters):
            for g, leaf, position, score in rows:
                node = view.nodes[leaf]
                results[members[offset + g]].append(
                    (node.points[position], node.items[position], score)
                )
    return results


def mbm_kgnn(
    tree: SpatialIndex,
    locations: Sequence[Point],
    k: int,
    aggregate: Aggregate,
    counters: IndexCounters | None = None,
) -> Ranked:
    """Exact top-``k`` group nearest neighbors.

    Returns ``(location, item, score)`` triples in ascending aggregate-cost
    order, where ``score = F(dis(p, l_1), ..., dis(p, l_n))``.  Ties break
    deterministically on location.
    """
    return mbm_kgnn_many(tree, [locations], k, aggregate, counters)[0]
