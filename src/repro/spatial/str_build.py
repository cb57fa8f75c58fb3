"""Sharded parallel Sort-Tile-Recursive bulk loading.

STR construction has an embarrassingly parallel middle: after the global
``(x, y)`` sort fixes the vertical slices, each slice is sorted by
``(y, x)`` and cut into leaves *independently of every other slice*.
:func:`parallel_str_bulk_load` farms exactly that per-slice work to worker
processes and stitches the returned leaf payloads in slice order, so the
packed tree is **byte-identical** to a serial
:meth:`~repro.index.rtree.RTree.bulk_load` for any worker count —
verified structurally by :func:`tree_digest`.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable

from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.index.rtree import RTree, slice_leaf_chunks, str_slices
from repro.index.base import validate_entries


def _build_slice(payload: tuple[list[tuple[Point, Any]], int]):
    """Worker entry point: tile one vertical slice into leaf chunks."""
    chunk, cap = payload
    return slice_leaf_chunks(chunk, cap)


def parallel_str_bulk_load(
    tree: RTree,
    entries: Iterable[tuple[Point, Any]],
    workers: int | None = None,
) -> RTree:
    """STR bulk-load ``tree`` using up to ``workers`` processes.

    ``workers=None`` or ``workers <= 1`` runs the per-slice tiling inline
    (still through the identical slice/chunk pipeline).  Items must be
    picklable when ``workers > 1``.  Returns ``tree`` for chaining.
    """
    if workers is not None and workers < 1:
        raise ConfigurationError("workers must be >= 1 or None")
    pairs = validate_entries(entries)
    pairs.sort(key=lambda e: (e[0].x, e[0].y))
    slices = str_slices(pairs, tree.max_entries)
    if workers is not None and workers > 1 and len(slices) > 1:
        import multiprocessing as mp

        try:
            ctx = mp.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            ctx = mp.get_context("spawn")
        with ctx.Pool(min(workers, len(slices))) as pool:
            per_slice = pool.map(
                _build_slice, [(chunk, tree.max_entries) for chunk in slices]
            )
    else:
        per_slice = [slice_leaf_chunks(chunk, tree.max_entries) for chunk in slices]
    tree.load_from_leaf_chunks(
        (payload for chunks in per_slice for payload in chunks), len(pairs)
    )
    return tree


def tree_digest(tree: RTree) -> str:
    """A structural SHA-256 over the tree: shape, MBRs, and leaf contents.

    Two trees digest equal iff they have the same node structure with the
    same bounding rectangles and the same entries in the same slots — the
    serial/parallel byte-identity check of the parallel loader.  Items
    hash by their ``poi_id`` when they have one, else by ``repr``.
    """
    h = hashlib.sha256()

    def item_key(item: Any) -> str:
        pid = getattr(item, "poi_id", None)
        return f"id:{pid}" if pid is not None else repr(item)

    stack = [(tree.root, 0)]
    while stack:
        node, depth = stack.pop()
        mbr = node.mbr
        bounds = (
            (mbr.xmin, mbr.ymin, mbr.xmax, mbr.ymax) if mbr is not None else None
        )
        h.update(f"n:{depth}:{node.is_leaf}:{bounds!r}".encode())
        if node.is_leaf:
            for p, item in zip(node.points, node.items, strict=True):
                h.update(f"e:{p.x!r}:{p.y!r}:{item_key(item)}".encode())
        else:
            # Reversed so children hash in tree order despite LIFO popping.
            for child in reversed(node.children):
                stack.append((child, depth + 1))
    return h.hexdigest()

