"""Failure injection: malformed requests must be rejected, not mis-served.

The parties are semi-honest in the paper's model, but a production LSP
still validates its inputs — these tests feed structurally broken messages
into every request handler and assert clean :class:`ProtocolError`s (never
a wrong answer or an unhandled crash).
"""

import random

import pytest

from repro.core.common import group_keypair
from repro.crypto.homomorphic import encrypt_indicator
from repro.errors import ConfigurationError, ProtocolError
from repro.geometry.point import Point
from repro.partition.solver import solve_partition
from repro.protocol.messages import (
    GroupQueryRequest,
    LocationSetUpload,
    SingleQueryRequest,
)
from repro.protocol.metrics import CostLedger


@pytest.fixture()
def pk(fast_config):
    return group_keypair(fast_config).public_key


def make_uploads(n, d, space, ids=None):
    ids = list(range(n)) if ids is None else ids
    return [
        LocationSetUpload(uid, tuple(Point(0.1 * (j + 1), 0.5) for j in range(d)))
        for uid in ids
    ]


def make_group_request(pk, fast_config, n=4, indicator_length=None, segments=None):
    params = solve_partition(n, fast_config.d, fast_config.delta)
    length = indicator_length if indicator_length is not None else params.delta_prime
    return GroupQueryRequest(
        k=fast_config.k,
        public_key=pk,
        subgroup_sizes=params.subgroup_sizes,
        segment_sizes=segments or params.segment_sizes,
        indicator=tuple(encrypt_indicator(pk, length, 0, rng=random.Random(0))),
        theta0=None,
    )


class TestGroupRequestValidation:
    def test_indicator_length_mismatch(self, lsp, fast_config, pk):
        request = make_group_request(pk, fast_config, indicator_length=3)
        uploads = make_uploads(4, fast_config.d, lsp.space)
        with pytest.raises(ProtocolError):
            lsp.answer_group_query(request, uploads, CostLedger())

    def test_missing_upload(self, lsp, fast_config, pk):
        request = make_group_request(pk, fast_config)
        uploads = make_uploads(3, fast_config.d, lsp.space)
        with pytest.raises(ProtocolError):
            lsp.answer_group_query(request, uploads, CostLedger())

    def test_duplicate_user_ids(self, lsp, fast_config, pk):
        request = make_group_request(pk, fast_config)
        uploads = make_uploads(4, fast_config.d, lsp.space, ids=[0, 1, 2, 2])
        with pytest.raises(ProtocolError):
            lsp.answer_group_query(request, uploads, CostLedger())

    def test_gapped_user_ids(self, lsp, fast_config, pk):
        request = make_group_request(pk, fast_config)
        uploads = make_uploads(4, fast_config.d, lsp.space, ids=[0, 1, 2, 7])
        with pytest.raises(ProtocolError):
            lsp.answer_group_query(request, uploads, CostLedger())

    def test_wrong_location_set_length(self, lsp, fast_config, pk):
        request = make_group_request(pk, fast_config)
        uploads = make_uploads(4, fast_config.d - 1, lsp.space)
        with pytest.raises((ProtocolError, ConfigurationError)):
            lsp.answer_group_query(request, uploads, CostLedger())

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_upload_rejected(self, lsp, fast_config, pk, bad):
        """A hostile location fails loudly instead of ranking POIs by NaN."""
        request = make_group_request(pk, fast_config)
        uploads = make_uploads(4, fast_config.d, lsp.space)
        hostile = list(uploads[2].locations)
        hostile[1] = Point(bad, 0.5)
        uploads[2] = LocationSetUpload(2, tuple(hostile))
        with pytest.raises(ConfigurationError, match="non-finite"):
            lsp.answer_group_query(request, uploads, CostLedger())

    def test_uploads_accepted_in_any_order(self, lsp, fast_config, pk):
        """The LSP sorts by user id (Section 4.2) — order must not matter."""
        request = make_group_request(pk, fast_config)
        uploads = make_uploads(4, fast_config.d, lsp.space)
        forward = lsp.answer_group_query(request, uploads, CostLedger())
        backward = lsp.answer_group_query(
            request, list(reversed(uploads)), CostLedger()
        )
        sk = group_keypair(fast_config).secret_key
        assert [sk.decrypt(c) for c in forward.ciphertexts] == [
            sk.decrypt(c) for c in backward.ciphertexts
        ]


class TestSingleRequestValidation:
    def test_indicator_location_mismatch(self, lsp, fast_config, pk):
        request = SingleQueryRequest(
            k=fast_config.k,
            public_key=pk,
            locations=tuple(Point(0.1 * j, 0.2) for j in range(1, 6)),
            indicator=tuple(encrypt_indicator(pk, 3, 0, rng=random.Random(0))),
        )
        with pytest.raises(ProtocolError):
            lsp.answer_single_query(request, CostLedger())


class TestTwoPhaseValidation:
    def test_blocks_must_cover_candidates(self, lsp, fast_config, pk):
        inner = encrypt_indicator(pk, 2, 0, rng=random.Random(0))
        outer = encrypt_indicator(pk, 2, 0, s=2, rng=random.Random(0))
        columns = [[1], [2], [3], [4], [5]]  # 5 candidates > 2 * 2 slots
        with pytest.raises(ProtocolError):
            lsp._two_phase_select(columns, inner, outer, CostLedger())

    def test_empty_columns_rejected(self, lsp):
        with pytest.raises(ProtocolError):
            lsp._rows([])
