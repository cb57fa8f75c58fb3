"""Hypothesis cross-index equivalence: every index answers alike.

Random point sets and random range / kNN queries must produce identical
results across brute force, grid and R-tree.  Range results are compared
as id sets (order is index specific); kNN results are compared as
distance multisets, which is the strongest property that survives
equal-distance ties.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.geometry.space import LocationSpace
from repro.gnn.knn import best_first_knn
from repro.index.bruteforce import BruteForceIndex
from repro.index.grid import GridIndex
from repro.index.rtree import RTree

SPACE = LocationSpace.unit_square()

coord = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=32)
points = st.lists(
    st.tuples(coord, coord), min_size=1, max_size=60, unique=True
)


#: One fresh instance of every index kind, by name.
INDEXES = {
    "bruteforce": BruteForceIndex,
    "grid": lambda: GridIndex(SPACE, 5),
    "rtree": lambda: RTree(max_entries=4),
}


def _load_all(raw):
    entries = [(Point(x, y), i) for i, (x, y) in enumerate(raw)]
    indexes = {name: make() for name, make in INDEXES.items()}
    for index in indexes.values():
        index.bulk_load(entries)
    return entries, indexes


@given(raw=points, q=st.tuples(coord, coord), k=st.integers(1, 10))
@settings(max_examples=40, deadline=None)
def test_knn_distance_multisets_agree(raw, q, k):
    _, indexes = _load_all(raw)
    query = Point(*q)
    reference = None
    for name, index in indexes.items():
        dists = sorted(
            round(p.distance_to(query), 9)
            for p, _ in best_first_knn(index, query, k)
        )
        if reference is None:
            reference = dists
        else:
            assert dists == reference, f"{name} disagreed on kNN distances"


@given(
    raw=points,
    box=st.tuples(coord, coord, coord, coord),
)
@settings(max_examples=40, deadline=None)
def test_range_id_sets_agree(raw, box):
    _, indexes = _load_all(raw)
    x1, x2 = sorted(box[:2])
    y1, y2 = sorted(box[2:])
    rect = Rect(x1, y1, x2, y2)
    reference = None
    for name, index in indexes.items():
        ids = {item for _, item in index.range_query(rect)}
        if reference is None:
            reference = ids
        else:
            assert ids == reference, f"{name} disagreed on range ids"


@given(raw=points)
@settings(max_examples=25, deadline=None)
def test_native_nearest_matches_generic_knn(raw):
    """The brute-force index's own nearest() agrees with best_first_knn."""
    entries = [(Point(x, y), i) for i, (x, y) in enumerate(raw)]
    query = Point(0.5, 0.5)
    k = min(5, len(entries))
    index = BruteForceIndex()
    index.bulk_load(entries)
    native = sorted(
        round(p.distance_to(query), 9) for p, _ in index.nearest(query, k)
    )
    generic = sorted(
        round(p.distance_to(query), 9)
        for p, _ in best_first_knn(index, query, k)
    )
    assert native == generic


@pytest.mark.parametrize("kind", sorted(INDEXES))
def test_bulk_load_replaces_contents(kind):
    """A second bulk_load replaces what the first loaded, on every index."""
    index = INDEXES[kind]()
    index.bulk_load([(Point(0.1, 0.1), "a"), (Point(0.2, 0.2), "b")])
    version = index.version
    index.bulk_load([(Point(0.3, 0.3), "c")])
    assert sorted(item for _, item in index.entries()) == ["c"]
    assert len(index) == 1
    assert index.version > version
