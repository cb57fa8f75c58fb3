"""Tests for the streaming clustered POI generator."""

import hashlib

import pytest

from repro.datasets import stream_clustered
from repro.errors import ConfigurationError
from repro.geometry.rect import Rect
from repro.geometry.space import LocationSpace


def _values_digest(pois) -> str:
    h = hashlib.sha256()
    for p in pois:
        h.update(f"{p.poi_id}:{p.location.x!r}:{p.location.y!r}:{p.name}".encode())
    return h.hexdigest()


class TestStreamClustered:
    def test_count_and_ids(self):
        pois = list(stream_clustered(500, seed=1))
        assert len(pois) == 500
        assert [p.poi_id for p in pois] == list(range(500))

    def test_deterministic_in_seed(self):
        a = [p.location for p in stream_clustered(200, seed=4)]
        b = [p.location for p in stream_clustered(200, seed=4)]
        c = [p.location for p in stream_clustered(200, seed=5)]
        assert a == b
        assert a != c

    def test_bounds_respected(self):
        space = LocationSpace(Rect(10.0, -5.0, 20.0, 5.0))
        pois = list(stream_clustered(400, space=space, seed=2))
        assert all(space.bounds.contains_point(p.location) for p in pois)

    def test_zero_count(self):
        assert list(stream_clustered(0, seed=1)) == []

    @pytest.mark.parametrize(
        "count, bounds, seed, digest",
        [
            (
                5_000, None, 0,
                "1730086c984de949865fe8cc03e3839ba732535f51df47f3a7bb6cb5c89ae8ff",
            ),
            (
                9_000, (10.0, -5.0, 20.0, 5.0), 3,
                "e045ee775da58be41992f8735b62ba7f4c801d7ec7afd468d345f105f87b77d1",
            ),
            (
                1, None, 7,
                "d7088faea51b6781b4e2b1f10425d4a42fe56d5e673865dd031efb3a236d98ce",
            ),
            (
                4_096, (0.0, 0.0, 1000.0, 250.0), 20180326,
                "18e2b7838370d1e5525b6f7316c4db4c744736e08b60229e9a7080668136e29a",
            ),
        ],
        ids=["5000-unit", "9000-box", "1-unit", "4096-wide"],
    )
    def test_values_pinned(self, count, bounds, seed, digest):
        """Every POI, name included, is what the generator always gave:
        the index-scale ledger lineage gates trees built from them."""
        space = LocationSpace(Rect(*bounds)) if bounds is not None else None
        assert _values_digest(stream_clustered(count, space=space, seed=seed)) == digest


class TestValidation:
    def test_negative_count_rejected(self):
        with pytest.raises(ConfigurationError):
            list(stream_clustered(-1))


class TestShapes:
    def test_clustered_is_denser_than_uniform(self):
        """Clustered data concentrates: the densest small cell holds far
        more points than the uniform expectation."""
        space = LocationSpace.unit_square()
        pois = list(stream_clustered(4_000, space=space, seed=3))
        g = 10
        counts: dict[tuple[int, int], int] = {}
        for p in pois:
            cell = (int(p.location.x * g) % g, int(p.location.y * g) % g)
            counts[cell] = counts.get(cell, 0) + 1
        assert max(counts.values()) > 3 * (4_000 / (g * g))

    def test_streaming_is_lazy(self):
        """Taking a prefix must not materialize the remaining blocks."""
        from itertools import islice

        stream = stream_clustered(10_000_000, seed=1)
        head = list(islice(stream, 5))
        assert len(head) == 5
        assert [p.poi_id for p in head] == [0, 1, 2, 3, 4]
