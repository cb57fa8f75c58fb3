"""Tests for kNN, MBM kGNN, and the query engine against the brute-force oracle.

Where the host allows it, the second-core helper walks the tail half of
each batched walk here; CI runs this file again under ``taskset -c 0`` and
``REPRO_FASTEXP=0``, where every walk is inline, against the same pins.
"""

import contextlib
import hashlib
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import cores, fastexp
from repro.datasets.poi import POI
from repro.datasets.sequoia import load_sequoia
from repro.datasets.synthetic import uniform_pois
from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.space import LocationSpace
from repro.gnn.aggregate import (
    MAX,
    MIN,
    SUM,
    Aggregate,
    get_aggregate,
    register_aggregate,
)
from repro.gnn.bruteforce import brute_force_kgnn
from repro.gnn.engine import INDEX_KINDS, GNNQueryEngine
from repro.gnn.knn import best_first_knn
from repro.gnn import mbm
from repro.gnn.mbm import mbm_kgnn, mbm_kgnn_many
from repro.gnn.mqm import mqm_kgnn
from repro.gnn.spm import spm_kgnn
from repro.index.base import IndexCounters
from repro.index.bruteforce import BruteForceIndex
from repro.index.rtree import RTree

coord = st.floats(min_value=0, max_value=1, allow_nan=False)
query_points = st.lists(st.builds(Point, coord, coord), min_size=1, max_size=6)


@contextlib.contextmanager
def one_cpu():
    """This process sees one usable CPU, as under ``taskset -c 0``, so
    every batch of groups is walked inline, without the second-core
    helper."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0})
        yield


_DIFF_SIZES = (1, 2, 4, 8)
_DIFF_KS = (1, 8, 32)
_DIFF_SPREADS = (0.02, 0.1, 0.3, 1.0)


def _lattice_pois(count: int, side: int, seed: int) -> list[POI]:
    """POIs on a ``side x side`` integer lattice: most locations hold several."""
    xy = np.random.default_rng(seed).integers(0, side, size=(count, 2))
    return [POI(i, Point(float(x), float(y))) for i, (x, y) in enumerate(xy)]


#: name -> (POIs, side of the square they cover)
_DIFF_DATASETS = {
    "sequoia": lambda: (load_sequoia(8000), 1.0),
    "lattice": lambda: (_lattice_pois(6000, 24, seed=3), 24.0),
}


def _sum_of_squares() -> Aggregate:
    """A custom monotone aggregate whose vector form must not be trusted.

    ``combine_rows`` overstates every cost, so an MBM walk that filtered
    with it would drop true answers; only the built-in aggregates may
    filter.
    """
    try:
        return get_aggregate("test-mbm-sum-of-squares")
    except ConfigurationError:
        aggregate = Aggregate(
            "test-mbm-sum-of-squares",
            lambda ds: float(sum(d * d for d in ds)),
            lambda m: 2.0 * (m * m).sum(axis=1) + 1.0,
        )
        register_aggregate(aggregate)
        return aggregate


def _differential_run(dataset: str, index: str, tree, side: float, aggregates):
    """Seeded MBM queries over one dataset/index: ``(query, answer, counters)``.

    One query per (aggregate, n, k); group spreads cycle through
    ``_DIFF_SPREADS`` and, on the lattice, every other group is snapped to
    lattice points so exact score ties are common.
    """
    rng = np.random.default_rng(list(f"{dataset}/{index}".encode()))
    runs = []
    for aggregate in aggregates:
        for n in _DIFF_SIZES:
            for k in _DIFF_KS:
                spread = _DIFF_SPREADS[len(runs) % len(_DIFF_SPREADS)] * side
                cx, cy = rng.uniform(0, side, 2)
                locations = [
                    Point(
                        float(cx + rng.uniform(-spread, spread)),
                        float(cy + rng.uniform(-spread, spread)),
                    )
                    for _ in range(n)
                ]
                if dataset == "lattice" and len(runs) % 2:
                    locations = [Point(float(round(q.x)), float(round(q.y))) for q in locations]
                counters = IndexCounters()
                got = mbm_kgnn(tree, locations, k, aggregate, counters)
                # Twice in one batch: the helper, where it runs, walks the
                # second copy, and each half counts its own work.
                twice = IndexCounters()
                assert mbm_kgnn_many(tree, [locations] * 2, k, aggregate, twice) == [got] * 2
                assert (twice.nodes_visited, twice.candidates_scored) == (
                    2 * counters.nodes_visited,
                    2 * counters.candidates_scored,
                )
                runs.append(
                    (
                        (locations, k, aggregate),
                        got,
                        (counters.nodes_visited, counters.candidates_scored),
                    )
                )
    return runs


def _counter_digests(runs) -> dict[str, tuple[int, int, str]]:
    """Per aggregate name: summed ``(nodes_visited, candidates_scored)``
    plus a digest of every pair, in run order."""
    by_name: dict[str, list[tuple[int, int]]] = {}
    for (_, _, aggregate), _, counters in runs:
        by_name.setdefault(aggregate.name, []).append(counters)
    return {
        name: (
            sum(p[0] for p in pairs),
            sum(p[1] for p in pairs),
            hashlib.sha256(repr(pairs).encode()).hexdigest()[:16],
        )
        for name, pairs in by_name.items()
    }


def _answer_digest(runs) -> str:
    """One digest of every ``(point, poi_id, score)`` list, in run order."""
    lists = [[(p.x, p.y, item.poi_id, s) for p, item, s in got] for _, got, _ in runs]
    return hashlib.sha256(repr(lists).encode()).hexdigest()[:16]


#: Counters of the differential workloads per aggregate, recorded from the
#: batched walk.  ``sum`` is keyed here by F of the mindists alone
#: (``rect_bound=None``), the key MAX, MIN and the custom aggregate keep.
_SCALAR_WALK_COUNTERS = {
    ("lattice", "rtree", "sum"): (118, 2459, "af54fbe331d5509f"),
    ("lattice", "rtree", "max"): (71, 1088, "64c4ddda5e335a27"),
    ("lattice", "rtree", "min"): (94, 1633, "3741547c1d73a412"),
    ("lattice", "rtree", "custom"): (118, 2376, "6fb42c0c5e0f640e"),
    ("lattice", "grid", "sum"): (44, 344, "d3d8bc741f8e4380"),
    ("lattice", "grid", "max"): (46, 347, "61a0426fc421b6f2"),
    ("lattice", "grid", "min"): (50, 440, "67603fe27737ada2"),
    ("sequoia", "rtree", "sum"): (248, 6172, "026fc0925ef8ec4e"),
    ("sequoia", "rtree", "max"): (89, 1528, "207ab6d6f0a2729b"),
    ("sequoia", "rtree", "min"): (88, 1544, "92a60ac243b6cb80"),
    ("sequoia", "rtree", "custom"): (175, 3968, "52d0470a299513f5"),
    ("sequoia", "grid", "sum"): (422, 5457, "86a328753aeb201f"),
    ("sequoia", "grid", "max"): (86, 527, "f86ba4e5a271b251"),
    ("sequoia", "grid", "min"): (57, 1119, "1ce839fddae14bbb"),
}

#: SUM's counters with the convexity bound in its keys (``sum_support_arrays``).
_CONVEX_SUM_COUNTERS = {
    ("lattice", "rtree"): (77, 1179, "6475153ee3393dfe"),
    ("lattice", "grid"): (44, 344, "d3d8bc741f8e4380"),
    ("sequoia", "rtree"): (122, 2416, "4a1e8e21abf6264d"),
    ("sequoia", "grid"): (122, 1255, "f3f9f4cbed59dac7"),
}

#: :func:`_answer_digest` of the differential runs, recorded from the
#: one-group heap walk the batched walk replaced.  On the lattice most
#: answers hold POIs tied on score and location, so these pin the order
#: of such ties, which the oracle comparison leaves open.
_DIFF_ANSWER_DIGESTS = {
    ("lattice", "rtree", "builtin"): "97481966e2585928",
    ("lattice", "rtree", "custom"): "2d9a1235b835d90a",
    ("lattice", "grid", "builtin"): "07601c8976314830",
    ("sequoia", "rtree", "builtin"): "b87ac1d1622f289e",
    ("sequoia", "rtree", "custom"): "b9db1d38dc143e7f",
    ("sequoia", "grid", "builtin"): "a8709792c3575a0f",
}


@pytest.fixture(scope="module")
def tree_and_pois():
    pois = uniform_pois(300, seed=5)
    tree = RTree(max_entries=8)
    tree.bulk_load((p.location, p) for p in pois)
    return tree, pois


class TestBestFirstKNN:
    def test_matches_oracle(self, tree_and_pois):
        tree, pois = tree_and_pois
        oracle = BruteForceIndex()
        for p in pois:
            oracle.insert(p.location, p)
        for seed in range(10):
            q = Point(*np.random.default_rng(seed).uniform(0, 1, 2))
            got = [item.poi_id for _, item in best_first_knn(tree, q, 15)]
            want = [item.poi_id for _, item in oracle.nearest(q, 15)]
            assert got == want

    def test_results_sorted_by_distance(self, tree_and_pois):
        tree, _ = tree_and_pois
        q = Point(0.3, 0.7)
        dists = [p.distance_to(q) for p, _ in best_first_knn(tree, q, 20)]
        assert dists == sorted(dists)

    def test_k_larger_than_database(self):
        tree = RTree()
        tree.bulk_load([(Point(0.1, 0.1), "a"), (Point(0.9, 0.9), "b")])
        assert len(best_first_knn(tree, Point(0, 0), 10)) == 2

    def test_invalid_k(self, tree_and_pois):
        tree, _ = tree_and_pois
        with pytest.raises(ConfigurationError):
            best_first_knn(tree, Point(0, 0), 0)

    @pytest.mark.parametrize("k", [2.5, 2.0, True], ids=repr)
    def test_non_integer_k_rejected(self, k):
        tree = RTree()
        tree.bulk_load([(Point(i / 10, i / 10), i) for i in range(10)])
        with pytest.raises(ConfigurationError, match="must be an integer >= 1"):
            best_first_knn(tree, Point(0, 0), k)
        assert best_first_knn(tree, Point(0, 0), np.int64(3)) == best_first_knn(
            tree, Point(0, 0), 3
        )

    def test_empty_tree(self):
        assert best_first_knn(RTree(), Point(0, 0), 3) == []


class TestMBM:
    @pytest.mark.parametrize("aggregate", [SUM, MAX, MIN], ids=lambda a: a.name)
    def test_matches_bruteforce_all_aggregates(self, tree_and_pois, aggregate):
        tree, pois = tree_and_pois
        rng = np.random.default_rng(17)
        for _ in range(8):
            n = int(rng.integers(1, 7))
            locations = [Point(*rng.uniform(0, 1, 2)) for _ in range(n)]
            got = mbm_kgnn(tree, locations, 10, aggregate)
            want = brute_force_kgnn(
                ((p.location, p) for p in pois), locations, 10, aggregate
            )
            assert [g[1].poi_id for g in got] == [w[1].poi_id for w in want]
            assert [g[2] for g in got] == pytest.approx([w[2] for w in want])

    @settings(max_examples=25, deadline=None)
    @given(query_points)
    def test_property_sum_matches_oracle(self, locations):
        pois = uniform_pois(60, seed=23)
        tree = RTree(max_entries=4)
        tree.bulk_load((p.location, p) for p in pois)
        got = mbm_kgnn(tree, locations, 5, SUM)
        want = brute_force_kgnn(((p.location, p) for p in pois), locations, 5, SUM)
        assert [g[1].poi_id for g in got] == [w[1].poi_id for w in want]

    def test_scores_ascending(self, tree_and_pois):
        tree, _ = tree_and_pois
        locations = [Point(0.2, 0.2), Point(0.8, 0.8)]
        scores = [s for _, _, s in mbm_kgnn(tree, locations, 12, SUM)]
        assert scores == sorted(scores)

    def test_single_location_equals_knn(self, tree_and_pois):
        tree, _ = tree_and_pois
        q = Point(0.4, 0.6)
        via_mbm = [item.poi_id for _, item, _ in mbm_kgnn(tree, [q], 10, SUM)]
        via_knn = [item.poi_id for _, item in best_first_knn(tree, q, 10)]
        assert via_mbm == via_knn

    def test_empty_locations_rejected(self, tree_and_pois):
        tree, _ = tree_and_pois
        with pytest.raises(ConfigurationError):
            mbm_kgnn(tree, [], 5, SUM)


@pytest.fixture(scope="module")
def diff_run():
    """Checks a differential run against ``brute_force_kgnn``; returns its
    counters and :func:`_answer_digest`.

    Each dataset/index is built once per module.
    """
    trees = {}

    def run(dataset, index, aggregates):
        if (dataset, index) not in trees:
            pois, side = _DIFF_DATASETS[dataset]()
            trees[dataset, index] = GNNQueryEngine(pois, index=index).tree, side
        tree, side = trees[dataset, index]
        runs = _differential_run(dataset, index, tree, side, aggregates)
        for (locations, k, aggregate), got, _ in runs:
            want = brute_force_kgnn(tree.entries(), locations, k, aggregate)
            # Entries tied on (score, location) are interchangeable.
            assert [(s, p) for p, _, s in got] == [(s, p) for p, _, s in want]
            assert all(item.location == p for p, item, _ in got)
            ids = [item.poi_id for _, item, _ in got]
            assert len(set(ids)) == len(ids)
        return _counter_digests(runs), _answer_digest(runs)

    return run


class TestMBMDifferential:
    """The walk against the oracle, the pinned answers and the pinned
    counters of each aggregate.

    SUM does no more work than it does keyed by F of the mindists alone, and
    its own pins record how much less.
    """

    @pytest.mark.parametrize("index", ["rtree", "grid"])
    @pytest.mark.parametrize("dataset", sorted(_DIFF_DATASETS))
    def test_builtin_aggregates(self, diff_run, dataset, index):
        counters, answers = diff_run(dataset, index, (SUM, MAX, MIN))
        assert answers == _DIFF_ANSWER_DIGESTS[dataset, index, "builtin"]
        for name in ("max", "min"):
            assert counters[name] == _SCALAR_WALK_COUNTERS[dataset, index, name]
        nodes, scored, _ = _SCALAR_WALK_COUNTERS[dataset, index, "sum"]
        assert counters["sum"][0] <= nodes and counters["sum"][1] <= scored
        assert counters["sum"] == _CONVEX_SUM_COUNTERS[dataset, index]

    @pytest.mark.parametrize("dataset", sorted(_DIFF_DATASETS))
    def test_custom_aggregate_scores_exactly(self, diff_run, dataset):
        counters, answers = diff_run(dataset, "rtree", (_sum_of_squares(),))
        assert answers == _DIFF_ANSWER_DIGESTS[dataset, "rtree", "custom"]
        assert counters == {
            _sum_of_squares().name: _SCALAR_WALK_COUNTERS[dataset, "rtree", "custom"]
        }


def _leaves(node) -> list:
    """Every leaf under an R-tree node."""
    if node.is_leaf:
        return [node]
    return [leaf for child in node.children for leaf in _leaves(child)]


_AGGREGATES = {"sum": lambda: SUM, "max": lambda: MAX, "min": lambda: MIN, "custom": _sum_of_squares}


@st.composite
def _lattice_group(draw, n: int):
    """n users on a 6 x 6 half-unit lattice, often stacked on one spot."""
    spot = st.builds(Point, *[st.integers(0, 10).map(lambda v: v / 2)] * 2)
    if draw(st.booleans()):
        return [draw(spot)] * n
    return draw(st.lists(spot, min_size=n, max_size=n))


class TestBatchedWalk:
    """``mbm_kgnn_many`` against the oracle and against one-group calls."""

    @staticmethod
    def _assert_batch(tree, groups, k, aggregate):
        counters = IndexCounters()
        got = mbm_kgnn_many(tree, groups, k, aggregate, counters)
        alone = IndexCounters()
        assert len(got) == len(groups)
        for group, answer in zip(groups, got, strict=True):
            want = brute_force_kgnn(tree.entries(), group, k, aggregate)
            # Entries tied on (score, location) are interchangeable for the
            # oracle; a one-group call must match the batch exactly.
            assert [(s, p) for p, _, s in answer] == [(s, p) for p, _, s in want]
            single = mbm_kgnn(tree, group, k, aggregate, alone)
            assert [(p, i.poi_id, s) for p, i, s in answer] == [
                (p, i.poi_id, s) for p, i, s in single
            ]
        # Each group's rounds depend on it alone: the batch does their work.
        assert (counters.nodes_visited, counters.candidates_scored) == (
            alone.nodes_visited,
            alone.candidates_scored,
        )

    @settings(max_examples=60, deadline=None)
    @given(
        data=st.data(),
        index=st.sampled_from(INDEX_KINDS),
        aggregate=st.sampled_from(sorted(_AGGREGATES)),
        count=st.integers(1, 60),
    )
    def test_agrees_with_oracle_and_one_group_calls(self, data, index, aggregate, count):
        aggregate = _AGGREGATES[aggregate]()
        pois = _lattice_pois(count, 6, seed=count)
        space = LocationSpace(Rect(0.0, 0.0, 5.0, 5.0))
        engine = GNNQueryEngine(pois, index=index, max_entries=4, space=space)
        tree = engine.tree
        next_id = count
        for _ in range(3):
            sizes = data.draw(st.lists(st.integers(1, 8), min_size=1, max_size=2))
            groups = data.draw(
                st.lists(
                    st.sampled_from(sizes).flatmap(_lattice_group), min_size=1, max_size=30
                )
            )
            k = data.draw(st.integers(1, len(tree) + 2))
            self._assert_batch(tree, groups, k, aggregate)
            view = tree.flat_view()
            assert view is None or view.version == tree.version
            # Mutate between batches: the next batch must see a rebuilt view.
            for _ in range(data.draw(st.integers(0, 6))):
                spot = data.draw(_lattice_group(1))[0]
                engine.insert(POI(next_id, spot))
                next_id += 1
            live = engine.pois
            for poi in data.draw(
                st.lists(st.sampled_from(live), max_size=len(live) - 1, unique=True)
            ):
                assert engine.delete(poi)

    def test_rtree_split_and_condense(self):
        pois = uniform_pois(400, seed=32)
        engine = GNNQueryEngine(pois, max_entries=8)
        tree = engine.tree
        groups = [
            [Point(0.2, 0.3), Point(0.25, 0.35), Point(0.3, 0.2)],
            [Point(0.9, 0.1), Point(0.1, 0.9)],
            [Point(0.5, 0.5)],
        ]
        self._assert_batch(tree, groups, 12, SUM)
        # STR packs full leaves, so one insert into a leaf splits it.
        leaves = len(_leaves(tree.root))
        leaf = _leaves(tree.root)[7]
        engine.insert(POI(1000, leaf.points[0]))
        assert len(_leaves(tree.root)) == leaves + 1
        for aggregate in (SUM, MAX, MIN):
            self._assert_batch(tree, groups, 12, aggregate)
        # Deleting down past the fill floor dissolves the leaf and
        # reinserts its remaining entries elsewhere.
        victim = _leaves(tree.root)[20]
        for item in list(victim.items)[: len(victim.items) - tree.min_entries + 1]:
            assert engine.delete(item)
        assert all(victim is not node for node in _leaves(tree.root))
        for aggregate in (SUM, MAX, MIN):
            self._assert_batch(tree, groups, 12, aggregate)
        assert tree.flat_view().version == tree.version
        ids = {p.poi_id for p in engine.query(len(engine), [Point(0.5, 0.5)])}
        assert len(ids) == len(engine)


class TestTwoCoreWalk:
    """A batch whose tail half the second-core helper walks equals one
    inline walk of the whole batch."""

    def test_halves_equal_one_walk_in_rows_ties_and_counts(self):
        # About 17 POIs on each lattice spot: most answers are ties on score
        # and location, ordered by leaf and position.
        pois = _lattice_pois(2400, 12, seed=7)
        engine = GNNQueryEngine(pois, max_entries=8, space=LocationSpace(Rect(0, 0, 11, 11)))
        view = engine.tree.flat_view()
        rng = np.random.default_rng(8)
        two_cores = cores._cpu_count() >= 2 and fastexp.enabled()
        for aggregate in (SUM, MAX, MIN):
            for n, count in ((1, 25), (3, 25), (8, 7), (4, 2)):
                q = rng.integers(0, 12, size=(2, count, n)).astype(float)
                inline = IndexCounters()
                with one_cpu():
                    [(offset, whole)] = mbm._walk_parts(view, q, 10, aggregate, inline)
                assert offset == 0
                split = IndexCounters()
                parts = mbm._walk_parts(view, q, 10, aggregate, split)
                assert [(start + g, *rest) for start, rows in parts for g, *rest in rows] == whole
                assert split == inline
                if two_cores:
                    assert [start for start, _ in parts] == [0, (count + 1) // 2]


class TestNodeArrayCache:
    """An index's cached node arrays never outlive a mutation of it."""

    GROUPS = [
        [Point(0.2, 0.3), Point(0.25, 0.35), Point(0.3, 0.2)],
        [Point(0.9, 0.1), Point(0.1, 0.9)],
        [Point(0.5, 0.5)],
    ]

    @staticmethod
    def _assert_exact(engine):
        tree = engine.tree
        for group in TestNodeArrayCache.GROUPS:
            for aggregate in (SUM, MAX, MIN):
                got = mbm_kgnn(tree, group, 12, aggregate)
                want = brute_force_kgnn(tree.entries(), group, 12, aggregate)
                assert [(s, p) for p, _, s in got] == [(s, p) for p, _, s in want]
        view = tree.flat_view()
        assert view is None or view.version == tree.version

    @staticmethod
    def _warm(engine):
        """One query that expands every node, so the flat view is built."""
        tree = engine.tree
        mbm_kgnn(tree, [Point(0.5, 0.5)], len(tree), SUM)

    @pytest.mark.parametrize("index", INDEX_KINDS)
    def test_inserts_and_deletes(self, index):
        pois = uniform_pois(400, seed=31)
        engine = GNNQueryEngine(pois, index=index, max_entries=8)
        self._warm(engine)
        self._assert_exact(engine)
        rng = np.random.default_rng(5)
        for i in range(40):
            x, y = rng.uniform(0.01, 0.99, 2)
            engine.insert(POI(1000 + i, Point(float(x), float(y))))
            if i % 10 == 9:
                self._assert_exact(engine)
                self._warm(engine)
        size = len(engine)
        deleted = pois[:60:3]
        for count, poi in enumerate(deleted, start=1):
            assert engine.delete(poi)
            assert len(engine) == size - count
        self._assert_exact(engine)
        ids = {p.poi_id for p in engine.query(len(engine), [Point(0.5, 0.5)])}
        assert len(ids) == len(engine)
        assert not ids & {p.poi_id for p in deleted}


class TestDuplicateEntries:
    """Identical (location, item) entries are distinct; every kGNN method agrees."""

    @pytest.fixture
    def tree(self):
        tree = RTree(max_entries=4)
        others = [(Point(0.1 * i, 0.2 + 0.05 * i), f"p{i}") for i in range(8)]
        twin = (Point(0.5, 0.5), "poi-A")
        tree.bulk_load([twin, *others[:4], twin, *others[4:]])
        return tree

    @pytest.mark.parametrize("algorithm", [mbm_kgnn, spm_kgnn, mqm_kgnn])
    def test_each_copy_counts(self, tree, algorithm):
        locations = [Point(0.4, 0.5), Point(0.6, 0.5)]
        got = algorithm(tree, locations, 3, SUM)
        want = brute_force_kgnn(tree.entries(), locations, 3, SUM)
        assert [item for _, item, _ in got] == [item for _, item, _ in want]
        assert [item for _, item, _ in got][:2] == ["poi-A", "poi-A"]
        assert [s for _, _, s in got] == [s for _, _, s in want]


class TestEngine:
    def test_query_caps_k_at_database_size(self):
        engine = GNNQueryEngine(uniform_pois(5, seed=1))
        assert len(engine.query(100, [Point(0.5, 0.5)])) == 5

    def test_empty_database_rejected(self):
        with pytest.raises(ConfigurationError):
            GNNQueryEngine([])

    def test_duplicate_ids_rejected(self):
        pois = [POI(1, Point(0, 0)), POI(1, Point(1, 1))]
        with pytest.raises(ConfigurationError):
            GNNQueryEngine(pois)

    def test_poi_by_id(self):
        pois = uniform_pois(10, seed=2)
        engine = GNNQueryEngine(pois)
        assert engine.poi_by_id(3) is pois[3]
        with pytest.raises(ConfigurationError):
            engine.poi_by_id(999)

    def test_dynamic_insert_changes_answers(self):
        engine = GNNQueryEngine(uniform_pois(50, seed=3))
        q = Point(0.123, 0.456)
        new_poi = POI(10_000, q, "pop-up")
        before = engine.query(1, [q])
        engine.insert(new_poi)
        after = engine.query(1, [q])
        assert after[0].poi_id == 10_000
        assert before[0].poi_id != 10_000

    @pytest.mark.parametrize("index", INDEX_KINDS)
    def test_dynamic_delete(self, index):
        pois = uniform_pois(50, seed=4)
        engine = GNNQueryEngine(pois, index=index)
        q = pois[7].location
        assert engine.query(1, [q])[0].poi_id == 7
        assert engine.delete(pois[7])
        assert engine.query(1, [q])[0].poi_id != 7
        assert not engine.delete(pois[7])
        assert not engine.delete(POI(7, Point(5.0, 5.0)))
        assert len(engine) == 49
        ids = [p.poi_id for p in engine.query(len(engine), [q])]
        assert sorted(ids) == [pid for pid in range(50) if pid != 7]

    @pytest.mark.parametrize("index", INDEX_KINDS)
    def test_emptied_database_rejected(self, index):
        """Every POI deleted: the error names the empty database, not k."""
        pois = uniform_pois(12, seed=8)
        engine = GNNQueryEngine(pois, index=index)
        for poi in pois:
            assert engine.delete(poi)
        group = [Point(0.5, 0.5)]
        calls = (
            lambda: engine.query(3, group),
            lambda: engine.query_scored(3, group),
            lambda: engine.query_many(3, [group, group]),
        )
        for call in calls:
            with pytest.raises(ConfigurationError, match="POI database must be non-empty"):
                call()

    def test_query_many_equals_one_query_per_set(self):
        engine = GNNQueryEngine(uniform_pois(200, seed=9))
        sets = [[Point(0.1, 0.2)], [Point(0.3, 0.3), Point(0.8, 0.1)], [Point(0.1, 0.2)]]
        got = engine.query_many(7, sets)
        assert [[p.poi_id for p in a] for a in got] == [
            [p.poi_id for p in engine.query(7, locations)] for locations in sets
        ]
        assert engine.query_many(7, []) == []
        with pytest.raises(ConfigurationError, match="at least one location"):
            engine.query_many(7, [[Point(0.5, 0.5)], []])
        with pytest.raises(ConfigurationError, match="non-finite"):
            engine.query_many(7, [[Point(0.5, 0.5)], [Point(float("nan"), 0.5)]])

    def test_insert_duplicate_id_rejected(self):
        pois = uniform_pois(10, seed=5)
        engine = GNNQueryEngine(pois)
        with pytest.raises(ConfigurationError):
            engine.insert(POI(3, Point(0.5, 0.5)))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_location_rejected(self, bad):
        engine = GNNQueryEngine(uniform_pois(500, seed=7))
        for location in (Point(bad, 0.2), Point(0.2, bad)):
            with pytest.raises(ConfigurationError, match="non-finite"):
                engine.query(3, [Point(0.5, 0.5), location])
            with pytest.raises(ConfigurationError, match="non-finite"):
                engine.query_scored(3, [location])

    @pytest.mark.parametrize("k", [2.5, 1.5, True], ids=repr)
    def test_non_integer_k_rejected(self, k):
        engine = GNNQueryEngine(uniform_pois(100, seed=7))
        group = [Point(0.5, 0.5), Point(0.2, 0.3)]
        calls = (
            lambda: engine.query(k, group),
            lambda: engine.query_many(k, [group]),
            lambda: engine.query_scored(k, group),
        )
        for call in calls:
            with pytest.raises(ConfigurationError, match="must be an integer >= 1"):
                call()
        assert engine.query(np.int64(3), group) == engine.query(3, group)

    @pytest.mark.parametrize("index", INDEX_KINDS)
    def test_non_finite_location_rejected_by_every_index(self, index):
        engine = GNNQueryEngine(uniform_pois(500, seed=7), index=index)
        with pytest.raises(ConfigurationError, match="non-finite"):
            engine.query(3, [Point(0.5, 0.5), Point(float("nan"), 0.2)])

    def test_query_scored_consistent(self):
        engine = GNNQueryEngine(uniform_pois(80, seed=6))
        locations = [Point(0.1, 0.1), Point(0.9, 0.9), Point(0.5, 0.2)]
        plain = engine.query(6, locations)
        scored = engine.query_scored(6, locations)
        assert [p.poi_id for p in plain] == [p.poi_id for p, _ in scored]
        assert [s for _, s in scored] == sorted(s for _, s in scored)
