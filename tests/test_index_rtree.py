"""Tests for the R-tree: structure, queries, bulk load, deletion."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.lsp import LSPServer
from repro.datasets import load_sequoia, stream_clustered
from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.index.bruteforce import BruteForceIndex
from repro.index.rtree import RTree

coord = st.floats(min_value=0, max_value=1, allow_nan=False)
point_lists = st.lists(st.tuples(coord, coord), min_size=1, max_size=120)


def make_points(pairs):
    return [Point(x, y) for x, y in pairs]


def check_invariants(tree: RTree):
    """Every node's MBR must tightly bound its content; leaves at one depth."""
    depths = set()

    def visit(node, depth):
        if node.is_leaf:
            depths.add(depth)
            if node.points:
                mbr = Rect.from_points(node.points)
                assert node.mbr == mbr
        else:
            assert node.children
            union = node.children[0].mbr
            for child in node.children[1:]:
                union = union.union(child.mbr)
                assert node.mbr.contains_rect(child.mbr)
            assert node.mbr == union
            for child in node.children:
                visit(child, depth + 1)

    visit(tree.root, 0)
    assert len(depths) <= 1  # balanced


def tree_digest(tree: RTree) -> str:
    """A SHA-256 over the tree's shape, MBRs and leaf entries, in tree order.

    Two trees digest equal only when they have the same nodes with the
    same bounding rectangles and the same entries in the same slots.
    Items hash by their ``poi_id`` when they have one, else by ``repr``.
    """
    h = hashlib.sha256()

    def item_key(item) -> str:
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


class TestRTreeConstruction:
    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            RTree(max_entries=3)
        with pytest.raises(ConfigurationError):
            RTree(max_entries=8, min_entries=5)

    def test_empty_tree(self):
        tree = RTree()
        assert len(tree) == 0
        assert not tree
        assert tree.range_query(Rect(0, 0, 1, 1)) == []

    def test_insert_and_count(self, small_pois):
        tree = RTree(max_entries=8)
        for poi in small_pois:
            tree.insert(poi.location, poi)
        assert len(tree) == len(small_pois)
        check_invariants(tree)

    def test_height_grows_with_size(self, small_pois):
        tree = RTree(max_entries=4)
        for poi in small_pois:
            tree.insert(poi.location, poi)
        assert tree.height >= 3

    def test_entries_iteration_complete(self, small_pois):
        tree = RTree(max_entries=8)
        for poi in small_pois:
            tree.insert(poi.location, poi)
        ids = sorted(p.poi_id for _, p in tree.entries())
        assert ids == sorted(p.poi_id for p in small_pois)

    def test_duplicate_locations_supported(self):
        tree = RTree(max_entries=4)
        p = Point(0.5, 0.5)
        for i in range(20):
            tree.insert(p, i)
        assert len(tree) == 20
        assert len(tree.range_query(Rect.from_point(p))) == 20


class TestBulkLoad:
    def test_bulk_load_matches_inserts(self, small_pois):
        bulk = RTree(max_entries=8)
        bulk.bulk_load((p.location, p) for p in small_pois)
        assert len(bulk) == len(small_pois)
        check_invariants(bulk)
        ids = sorted(p.poi_id for _, p in bulk.entries())
        assert ids == sorted(p.poi_id for p in small_pois)

    def test_bulk_load_empty(self):
        tree = RTree()
        tree.bulk_load([])
        assert len(tree) == 0

    def test_bulk_load_replaces_content(self, small_pois):
        tree = RTree()
        tree.insert(Point(0, 0), "old")
        tree.bulk_load((p.location, p) for p in small_pois[:10])
        assert len(tree) == 10
        assert all(item != "old" for _, item in tree.entries())

    def test_bulk_load_is_shallower_than_inserts(self):
        rng = np.random.default_rng(0)
        pts = [Point(float(x), float(y)) for x, y in rng.uniform(0, 1, (2000, 2))]
        bulk = RTree(max_entries=16)
        bulk.bulk_load((p, i) for i, p in enumerate(pts))
        incremental = RTree(max_entries=16)
        for i, p in enumerate(pts):
            incremental.insert(p, i)
        assert bulk.height <= incremental.height
        check_invariants(bulk)


class TestBulkLoadPinned:
    """STR bulk loading builds exactly the trees it built before, node for node."""

    @pytest.fixture(scope="class")
    def clustered(self):
        return [(poi.location, poi) for poi in stream_clustered(50_000, seed=1)]

    def test_sequoia_tree(self):
        tree = LSPServer(load_sequoia(), seed=0).engine.tree
        assert tree.max_entries == 32
        assert tree_digest(tree) == (
            "a7bdf15ce8827001c0a306c7372c9b7529953090d54e90174cd2163f215624ba"
        )

    @pytest.mark.parametrize(
        "count, fan_out, digest",
        [
            (50_000, 64, "f58e92482bb5270e61ad464a778db432444572fcb6c7af2c8cd9750b35ee7a63"),
            (0, 32, "e45e7de21ca5d3474be5e7ed3a69777f4c3938dea614198dcd840e04271335aa"),
            (1, 32, "b1199ee9c697d1f5ca7872a24788f97d390e782528ff9a3b5370efb313877138"),
            (33, 32, "042f0180dc237bba5de0aeb56bbc0d3d057b30685591305adfceacde4fd24439"),
        ],
        ids=["50000-at-64", "0-at-32", "1-at-32", "33-at-32"],
    )
    def test_clustered_trees(self, clustered, count, fan_out, digest):
        tree = RTree(max_entries=fan_out)
        tree.bulk_load(clustered[:count])
        assert len(tree) == count
        check_invariants(tree)
        assert tree_digest(tree) == digest

    def test_digest_distinguishes_content(self, clustered):
        a = RTree(max_entries=16)
        a.bulk_load(clustered[:100])
        b = RTree(max_entries=16)
        b.bulk_load(clustered[1:101])
        assert tree_digest(a) != tree_digest(b)


class TestRangeQuery:
    @settings(max_examples=30, deadline=None)
    @given(point_lists, coord, coord, coord, coord)
    def test_range_matches_bruteforce(self, pairs, x1, y1, x2, y2):
        rect = Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
        tree = RTree(max_entries=4)
        oracle = BruteForceIndex()
        for i, p in enumerate(make_points(pairs)):
            tree.insert(p, i)
            oracle.insert(p, i)
        got = sorted(item for _, item in tree.range_query(rect))
        want = sorted(item for _, item in oracle.range_query(rect))
        assert got == want


class TestInsertPath:
    def test_knn_matches_bruteforce(self):
        """Trees grown by inserts, at a small fan-out, split many times."""
        from repro.gnn.knn import best_first_knn

        rng = np.random.default_rng(10)
        points = [Point(float(x), float(y)) for x, y in rng.uniform(0, 1, (300, 2))]
        tree = RTree(max_entries=6)
        oracle = BruteForceIndex()
        for i, p in enumerate(points):
            tree.insert(p, i)
            oracle.insert(p, i)
        q = Point(0.37, 0.61)
        got = [i for _, i in best_first_knn(tree, q, 15)]
        want = [i for _, i in oracle.nearest(q, 15)]
        assert got == want


class TestDeletion:
    def test_delete_existing(self, small_pois):
        tree = RTree(max_entries=6)
        for poi in small_pois:
            tree.insert(poi.location, poi)
        victim = small_pois[37]
        assert tree.delete(victim.location, victim)
        assert len(tree) == len(small_pois) - 1
        remaining = {p.poi_id for _, p in tree.entries()}
        assert victim.poi_id not in remaining
        check_invariants(tree)

    def test_delete_missing_returns_false(self, small_pois):
        tree = RTree()
        tree.bulk_load((p.location, p) for p in small_pois)
        assert not tree.delete(Point(0.123456, 0.654321), "ghost")
        assert len(tree) == len(small_pois)

    def test_delete_everything(self, small_pois):
        subset = small_pois[:40]
        tree = RTree(max_entries=4)
        for poi in subset:
            tree.insert(poi.location, poi)
        for poi in subset:
            assert tree.delete(poi.location, poi)
        assert len(tree) == 0

    def test_queries_correct_after_mixed_workload(self, small_pois):
        tree = RTree(max_entries=5)
        oracle = BruteForceIndex()
        alive = []
        for i, poi in enumerate(small_pois):
            tree.insert(poi.location, poi)
            alive.append(poi)
            if i % 3 == 2:
                victim = alive.pop(len(alive) // 2)
                assert tree.delete(victim.location, victim)
        for poi in alive:
            oracle.insert(poi.location, poi)
        rect = Rect(0.2, 0.2, 0.8, 0.8)
        got = sorted(p.poi_id for _, p in tree.range_query(rect))
        want = sorted(p.poi_id for _, p in oracle.range_query(rect))
        assert got == want
        check_invariants(tree)
