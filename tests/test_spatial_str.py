"""Tests for the sharded parallel STR bulk loader."""

import pytest

from repro.datasets import stream_clustered, stream_uniform
from repro.errors import ConfigurationError
from repro.index.rtree import RTree, slice_leaf_chunks, str_slices
from repro.spatial import parallel_str_bulk_load, tree_digest


def _entries(count, seed=7, clustered=False):
    stream = stream_clustered if clustered else stream_uniform
    return [(poi.location, poi) for poi in stream(count, seed=seed)]


class TestStrSlices:
    def test_slices_cover_input_in_order(self):
        pairs = sorted(_entries(500), key=lambda e: (e[0].x, e[0].y))
        slices = str_slices(pairs, 16)
        assert [p for chunk in slices for p in chunk] == pairs

    def test_empty_input_yields_no_slices(self):
        assert str_slices([], 16) == []

    def test_leaf_chunks_respect_capacity(self):
        pairs = _entries(300)
        for chunk in str_slices(sorted(pairs, key=lambda e: (e[0].x, e[0].y)), 8):
            for points, items in slice_leaf_chunks(chunk, 8):
                assert 1 <= len(points) <= 8
                assert len(points) == len(items)


class TestParallelBuildIdentity:
    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_any_worker_count_matches_serial(self, workers):
        entries = _entries(2_000, clustered=True)
        serial = RTree(max_entries=16)
        serial.bulk_load(entries)
        parallel = RTree(max_entries=16)
        parallel_str_bulk_load(parallel, entries, workers=workers)
        assert tree_digest(parallel) == tree_digest(serial)
        assert len(parallel) == len(serial) == len(entries)

    def test_more_workers_than_slices(self):
        # 40 entries at cap 16 -> 2 slices; 32 workers must not change the tree.
        entries = _entries(40)
        serial = RTree(max_entries=16)
        serial.bulk_load(entries)
        parallel = RTree(max_entries=16)
        parallel_str_bulk_load(parallel, entries, workers=32)
        assert tree_digest(parallel) == tree_digest(serial)

    def test_single_leaf_and_empty(self):
        entries = _entries(5)
        tree = RTree(max_entries=16)
        parallel_str_bulk_load(tree, entries, workers=4)
        assert len(tree) == 5
        empty = RTree(max_entries=16)
        parallel_str_bulk_load(empty, [], workers=4)
        assert len(empty) == 0

    def test_loaded_tree_answers_queries(self):
        entries = _entries(600)
        tree = RTree(max_entries=16)
        parallel_str_bulk_load(tree, entries, workers=4)
        from repro.geometry.rect import Rect

        got = {item.poi_id for _, item in tree.range_query(Rect(0.2, 0.2, 0.6, 0.6))}
        want = {
            item.poi_id
            for p, item in entries
            if Rect(0.2, 0.2, 0.6, 0.6).contains_point(p)
        }
        assert got == want

    def test_invalid_workers_rejected(self):
        with pytest.raises(ConfigurationError):
            parallel_str_bulk_load(RTree(), _entries(10), workers=0)

    def test_digest_distinguishes_content(self):
        a = RTree(max_entries=16)
        a.bulk_load(_entries(100, seed=1))
        b = RTree(max_entries=16)
        b.bulk_load(_entries(100, seed=2))
        assert tree_digest(a) != tree_digest(b)
