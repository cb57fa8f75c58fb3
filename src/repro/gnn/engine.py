"""The kGNN black box the privacy protocols call.

The PPGNN design treats query answering as an opaque function from
``(k, locations)`` to a ranked POI list (Section 1, novelty 4).  This module
gives that black box a concrete default — MBM over an R-tree — behind an
interface narrow enough that any group query (e.g. a meeting-location
determination algorithm, see ``examples/ppmld.py``) can be swapped in.

The index substrate is selectable (:data:`INDEX_KINDS`).  Every kind
(``rtree``, ``grid``, ``bruteforce``) answers exactly and byte-identically
— only the traversal work differs, metered through
``engine.index_counters``.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from repro.datasets.poi import POI
from repro.errors import ConfigurationError, positive_int
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.space import LocationSpace
from repro.gnn.aggregate import Aggregate, SUM
from repro.gnn.mbm import mbm_kgnn_many
from repro.gnn.mqm import mqm_kgnn
from repro.gnn.spm import spm_kgnn
from repro.index.base import IndexCounters, SpatialIndex, validate_location
from repro.index.bruteforce import BruteForceIndex
from repro.index.grid import GridIndex
from repro.index.rtree import RTree


def _per_set(kgnn):
    """A one-group kGNN function, looped over a batch of groups."""

    def many(tree, groups, k, aggregate, counters):
        return [kgnn(tree, group, k, aggregate, counters) for group in groups]

    return many


#: The three classic group-kNN algorithms of [24], selectable per engine,
#: each answering a batch of location sets.
_ALGORITHMS = {"mbm": mbm_kgnn_many, "spm": _per_set(spm_kgnn), "mqm": _per_set(mqm_kgnn)}

_INDEX_TYPES = {"rtree": RTree, "grid": GridIndex, "bruteforce": BruteForceIndex}

#: Selectable index substrates behind the kGNN black box.
INDEX_KINDS = tuple(_INDEX_TYPES)

#: Signature of a pluggable group-query function: (k, locations) -> ranked POIs.
GroupQueryFn = Callable[[int, Sequence[Point]], list[POI]]


def build_index(
    kind: str,
    pois: Sequence[POI],
    space: LocationSpace | None = None,
    max_entries: int = 32,
    build_workers: int | None = None,
) -> SpatialIndex:
    """The ``kind`` index over ``pois``, as :class:`GNNQueryEngine` builds it.

    ``max_entries`` is the R-tree fan-out; ``space`` sizes the grid (the
    POIs' bounding box when omitted); ``build_workers`` > 1 bulk-loads an
    R-tree through the parallel STR builder, which gives the same tree.
    """
    if kind not in _INDEX_TYPES:
        raise ConfigurationError(
            f"unknown index kind {kind!r}; known: {list(INDEX_KINDS)}"
        )
    entries = [(poi.location, poi) for poi in pois]
    if kind == "rtree":
        tree = RTree(max_entries=max_entries)
        if build_workers is not None and build_workers > 1:
            from repro.spatial.str_build import parallel_str_bulk_load

            parallel_str_bulk_load(tree, entries, workers=build_workers)
        else:
            tree.bulk_load(entries)
        return tree
    if kind == "grid":
        if space is None:
            space = LocationSpace(Rect.from_points([p for p, _ in entries]))
        cells = max(1, math.ceil(math.sqrt(len(entries) / 8)))
        tree = GridIndex(space, cells_per_side=cells)
        tree.bulk_load(entries)
        return tree
    tree = BruteForceIndex()
    tree.bulk_load(entries)
    return tree


class _Pending:
    """A kNN-cache placeholder for a miss the batched walk has yet to answer."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index


class GNNQueryEngine:
    """A spatial-index-backed kGNN engine over a POI database.

    Parameters
    ----------
    pois:
        The LSP database D.
    aggregate:
        The monotone cost function F (default ``sum``, the paper's choice).
    max_entries:
        R-tree fan-out (ignored by the other index kinds).
    algorithm:
        The plaintext kGNN algorithm: ``"mbm"`` (default, the paper's
        choice), ``"spm"``, or ``"mqm"`` — the three methods of [24].
    index:
        Index substrate, one of :data:`INDEX_KINDS` (default ``"rtree"``).
    space:
        The location space (needed by ``"grid"``; defaults to the POIs'
        bounding box when omitted).
    build_workers:
        When > 1 and ``index="rtree"``, bulk-load via the sharded parallel
        STR builder — the resulting tree is byte-identical to a serial
        build, so this is purely a wall-clock knob.
    tree:
        An index of kind ``index`` that :func:`build_index` already built
        over exactly ``pois``.  The engine shares it instead of building
        its own and only reads it: :meth:`insert` and :meth:`delete`
        raise, since other engines answer from the same index.  Counters,
        the kNN cache and the id map stay the engine's own.
    """

    def __init__(
        self,
        pois: Sequence[POI],
        aggregate: Aggregate = SUM,
        max_entries: int = 32,
        algorithm: str = "mbm",
        index: str = "rtree",
        space: LocationSpace | None = None,
        build_workers: int | None = None,
        tree: SpatialIndex | None = None,
    ) -> None:
        if not pois:
            raise ConfigurationError("the POI database must be non-empty")
        self.aggregate = aggregate
        self.algorithm = algorithm
        self._kgnn = _ALGORITHMS.get(algorithm)
        if self._kgnn is None:
            raise ConfigurationError(
                f"unknown kGNN algorithm {algorithm!r}; known: {sorted(_ALGORITHMS)}"
            )
        self.index_kind = index
        self.index_counters = IndexCounters()
        self._shared = tree is not None
        if tree is None:
            tree = build_index(index, pois, space, max_entries, build_workers)
        elif not isinstance(tree, _INDEX_TYPES.get(index, ())) or len(tree) != len(pois):
            raise ConfigurationError(
                f"a shared index must be a {index!r} index over exactly the given POIs"
            )
        # `tree` keeps its historical name: callers poke engine.tree for
        # version/height regardless of which substrate is behind it.
        self.tree = tree
        self._by_id = {poi.poi_id: poi for poi in pois}
        if len(self._by_id) != len(pois):
            raise ConfigurationError("duplicate poi_id values in the database")
        #: Optional exact-match kGNN result cache (see repro.serve.cache).
        #: None keeps the historical uncached behavior.
        self.knn_cache = None

    # ---------------------------------------------------------------- queries

    def _checked_k(self, k: int, location_sets: Sequence[Sequence[Point]]) -> int:
        """``k`` capped at the database size, once every input is valid.

        A NaN or infinite location would poison every score comparison and
        return some ranking without an error.
        """
        k = positive_int(k, "k")
        if not len(self.tree):
            raise ConfigurationError("the POI database must be non-empty")
        for locations in location_sets:
            if not locations:
                raise ConfigurationError("kGNN query needs at least one location")
            for location in locations:
                validate_location(location)
        return min(k, len(self.tree))

    def _run_kgnn(
        self, k: int, location_sets: Sequence[Sequence[Point]]
    ) -> list[list[tuple[Point, POI, float]]]:
        self.index_counters.queries += len(location_sets)
        return self._kgnn(
            self.tree, location_sets, k, self.aggregate, self.index_counters
        )

    def __len__(self) -> int:
        return len(self.tree)

    @property
    def pois(self) -> tuple[POI, ...]:
        """The live database rows in id order (replica-building snapshot)."""
        return tuple(self._by_id[pid] for pid in sorted(self._by_id))

    def poi_by_id(self, poi_id: int) -> POI:
        """Resolve a POI id (used when decoding transmitted answers)."""
        try:
            return self._by_id[poi_id]
        except KeyError:
            raise ConfigurationError(f"unknown poi_id {poi_id}") from None

    def set_knn_cache(self, cache) -> None:
        """Install (or remove, with None) an exact-match kGNN result cache.

        The cache key includes the index's mutation version, so entries
        created before an :meth:`insert`/:meth:`delete` can never serve a
        stale answer afterwards.
        """
        self.knn_cache = cache

    def query(self, k: int, locations: Sequence[Point]) -> list[POI]:
        """Definition 2.1: the top-``k`` POIs by ascending F.

        ``k`` is capped at the database size, mirroring ``k <= D``.  With
        a cache installed, a verbatim repeat of an earlier query (same
        index version, same k, same locations) is served from memory;
        results are identical to the uncached path by construction of the
        exact key.  A NaN or infinite location, a ``k`` below 1 or an
        emptied database raises :class:`ConfigurationError`.
        """
        return self.query_many(k, [locations])[0]

    def query_many(
        self, k: int, location_sets: Sequence[Sequence[Point]]
    ) -> list[list[POI]]:
        """:meth:`query` for each location set, the kGNN calls in one batch.

        Every location is validated before any work.  With a cache
        installed, the sets are looked up in order, and each miss stores a
        placeholder at once, so recency, hits, misses and evictions are
        those of a loop of :meth:`query` calls (a repeat within the batch
        hits its placeholder).  Only the misses are answered, in one
        batched walk, and each placeholder still cached is then filled in
        place.
        """
        k = self._checked_k(k, location_sets)
        cache = self.knn_cache
        if cache is None:
            return [
                [poi for _, poi, _ in ranked]
                for ranked in self._run_kgnn(k, location_sets)
            ]
        from repro.serve.cache import knn_cache_key

        answers: list = []
        misses: list[tuple[tuple, Sequence[Point]]] = []
        for locations in location_sets:
            key = knn_cache_key(
                self.tree.version, self.algorithm, self.aggregate.name, k, locations
            )
            answer = cache.lookup(key)
            if answer is None:
                answer = _Pending(len(misses))
                misses.append((key, locations))
                cache.store(key, answer)
            answers.append(answer)
        results: list[tuple[POI, ...]] = []
        if misses:
            try:
                walked = self._run_kgnn(k, [locations for _, locations in misses])
            except BaseException:
                for key, _ in misses:
                    cache.discard(key)
                raise
            results = [tuple(poi for _, poi, _ in ranked) for ranked in walked]
            for (key, _), result in zip(misses, results, strict=True):
                cache.fill(key, result)
        return [
            list(results[a.index] if isinstance(a, _Pending) else a) for a in answers
        ]

    def query_scored(
        self, k: int, locations: Sequence[Point]
    ) -> list[tuple[POI, float]]:
        """Like :meth:`query` but keeps the aggregate scores (for tests)."""
        k = self._checked_k(k, [locations])
        return [(poi, score) for _, poi, score in self._run_kgnn(k, [locations])[0]]

    # Mutation passthroughs: the dynamic-database story of Section 1.

    def insert(self, poi: POI) -> None:
        """Add a POI to the live database (no precomputation to refresh)."""
        self._check_owned()
        if poi.poi_id in self._by_id:
            raise ConfigurationError(f"poi_id {poi.poi_id} already present")
        self.tree.insert(poi.location, poi)
        self._by_id[poi.poi_id] = poi

    def delete(self, poi: POI) -> bool:
        """Remove a POI; returns False when it was not present."""
        self._check_owned()
        removed = self.tree.delete(poi.location, poi)
        if removed:
            del self._by_id[poi.poi_id]
        return removed

    def _check_owned(self) -> None:
        if self._shared:
            raise ConfigurationError(
                "this engine shares its index read-only; mutate an engine "
                "that built its own"
            )
