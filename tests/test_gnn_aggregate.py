"""Tests for the aggregate cost functions."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.gnn.aggregate import (
    MAX,
    MIN,
    SUM,
    Aggregate,
    get_aggregate,
    register_aggregate,
)

dist_lists = st.lists(
    st.floats(min_value=0, max_value=100, allow_nan=False), min_size=1, max_size=10
)


class TestBuiltins:
    def test_registry_lookup(self):
        assert get_aggregate("sum") is SUM
        assert get_aggregate("max") is MAX
        assert get_aggregate("min") is MIN

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            get_aggregate("median")

    @given(dist_lists)
    def test_scalar_forms(self, ds):
        assert SUM(ds) == pytest.approx(sum(ds))
        assert MAX(ds) == max(ds)
        assert MIN(ds) == min(ds)

    @given(dist_lists)
    def test_rows_match_scalar(self, ds):
        """The vector form returns the scalar form's float, bit for bit."""
        matrix = np.array([ds, ds[::-1]])
        for agg in (SUM, MAX, MIN):
            assert agg.combine_rows(matrix).tolist() == [agg(ds), agg(ds[::-1])]

    @given(dist_lists)
    def test_partial_merge_decomposition(self, ds):
        """partial over a prefix then merge with the rest must equal combine."""
        if len(ds) < 2:
            return
        head, tail = ds[0], ds[1:]
        for agg in (SUM, MAX, MIN):
            partial = agg.partial(tail)
            merged = agg.merge(np.array([[head]]), np.array([partial]))
            assert merged[0, 0] == pytest.approx(agg(ds))

    @given(dist_lists, st.floats(min_value=0, max_value=10, allow_nan=False))
    def test_monotonicity(self, ds, bump):
        """Increasing any single distance must not decrease F (Eqn 1)."""
        for agg in (SUM, MAX, MIN):
            base = agg(ds)
            for i in range(len(ds)):
                bumped = list(ds)
                bumped[i] += bump
                assert agg(bumped) >= base - 1e-12


def left_fold(row: list[float]) -> float:
    """``((d_1 + d_2) + d_3) + ...``, one rounding per term."""
    total = row[0]
    for d in row[1:]:
        total += d
    return total


class TestSumIsALeftFold:
    """SUM rounds the same way in every form and on every Python version.

    From Python 3.12 builtin ``sum`` of floats is compensated, and
    ``ndarray.sum`` sums pairwise along a contiguous axis; both round
    differently from a left fold on rows like these.
    """

    ROWS = [
        [1.0, 1e-16, 1e-16],
        [1e16, 1.0, -1e16],
        [0.1] * 10,
        [0.3, 1e-17, 0.7, 1e-17, 2.0, 1e-16, 3.0, 1e-16, 5.0],
    ]

    @pytest.mark.parametrize("row", ROWS)
    def test_every_form_is_the_fold(self, row):
        want = left_fold(row)
        assert SUM.combine(row) == want
        assert SUM.partial(row) == want
        assert SUM.combine_rows(np.array([row, row])).tolist() == [want, want]

    @given(st.lists(st.floats(-1e300, 1e300, allow_nan=False), min_size=1, max_size=12))
    def test_random_rows(self, row):
        want = left_fold(row)
        assert SUM.combine(row) == want
        assert SUM.combine_rows(np.array([row])).tolist() == [want]


class TestCustomAggregates:
    def test_register_and_use(self):
        # Squared-sum: a custom monotone aggregate (the black-box claim).
        squared = Aggregate(
            "test-squared-sum",
            lambda ds: float(sum(d * d for d in ds)),
            lambda m: (m * m).sum(axis=1),
        )
        register_aggregate(squared)
        assert get_aggregate("test-squared-sum")([3.0, 4.0]) == 25.0
        assert not squared.decomposable

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError):
            register_aggregate(
                Aggregate("sum", lambda ds: 0.0, lambda m: m.sum(axis=1))
            )
