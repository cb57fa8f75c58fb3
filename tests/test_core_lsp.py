"""Direct tests of the LSP request handlers and their diagnostics."""

import random

import numpy as np
import pytest

from repro.core.common import group_keypair
from repro.core.lsp import LSPServer, QueryStats
from repro.crypto.homomorphic import encrypt_indicator
from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.partition.layout import GroupLayout
from repro.partition.solver import solve_partition
from repro.protocol.messages import (
    GroupQueryRequest,
    LocationSetUpload,
    SingleQueryRequest,
)
from repro.protocol.metrics import LSP, CostLedger


@pytest.fixture()
def keys(fast_config):
    return group_keypair(fast_config)


def build_request(keys, fast_config, sets, theta0=None, hot=0):
    n = len(sets)
    params = solve_partition(n, fast_config.d, fast_config.delta)
    indicator = encrypt_indicator(
        keys.public_key, params.delta_prime, hot, rng=random.Random(1)
    )
    request = GroupQueryRequest(
        k=fast_config.k,
        public_key=keys.public_key,
        subgroup_sizes=params.subgroup_sizes,
        segment_sizes=params.segment_sizes,
        indicator=tuple(indicator),
        theta0=theta0,
    )
    uploads = [LocationSetUpload(i, tuple(s)) for i, s in enumerate(sets)]
    return request, uploads, params


def make_sets(n, d, seed):
    rng = np.random.default_rng(seed)
    return [
        [Point(float(x), float(y)) for x, y in rng.uniform(0, 1, (d, 2))]
        for _ in range(n)
    ]


class TestGroupHandler:
    def test_selected_answer_matches_requested_candidate(
        self, lsp, fast_config, keys
    ):
        """Hand-built indicator: the decrypted answer must be exactly the
        kGNN answer of the candidate at the hot index."""
        sets = make_sets(3, fast_config.d, seed=3)
        request, uploads, params = build_request(keys, fast_config, sets, hot=5)
        encrypted = lsp.answer_group_query(request, uploads, CostLedger())
        from repro.encoding.answers import AnswerCodec

        codec = AnswerCodec(fast_config.keysize, fast_config.k, lsp.space)
        decoded = codec.decode(
            [keys.secret_key.decrypt(c) for c in encrypted.ciphertexts]
        )
        layout = GroupLayout(params)
        candidate = layout.candidate_at(sets, 5)
        expected = [p.poi_id for p in lsp.engine.query(fast_config.k, candidate)]
        assert [a.poi_id for a in decoded] == expected

    def test_stats_without_sanitation(self, lsp, fast_config, keys):
        sets = make_sets(3, fast_config.d, seed=4)
        request, uploads, params = build_request(keys, fast_config, sets)
        lsp.answer_group_query(request, uploads, CostLedger())
        stats = lsp.last_stats
        assert isinstance(stats, QueryStats)
        assert stats.candidate_count == params.delta_prime
        assert stats.sanitation_samples == 0
        assert stats.sanitized_answer_lengths == (fast_config.k,) * params.delta_prime

    def test_stats_with_sanitation(self, lsp, fast_config, keys):
        sets = make_sets(3, fast_config.d, seed=5)
        request, uploads, params = build_request(
            keys, fast_config, sets, theta0=0.05
        )
        lsp.answer_group_query(request, uploads, CostLedger())
        stats = lsp.last_stats
        assert stats.sanitation_samples == 1500  # the fixture override
        assert len(stats.sanitized_answer_lengths) == params.delta_prime
        assert all(1 <= t <= fast_config.k for t in stats.sanitized_answer_lengths)

    def test_lsp_clock_charged(self, lsp, fast_config, keys):
        sets = make_sets(3, fast_config.d, seed=6)
        request, uploads, _ = build_request(keys, fast_config, sets)
        ledger = CostLedger()
        lsp.answer_group_query(request, uploads, ledger)
        assert ledger.report().lsp_cost_seconds > 0
        assert ledger.report().ops_by_role[LSP].scalar_muls > 0


class TestSingleHandler:
    def test_answers_each_location_independently(self, lsp, fast_config, keys):
        d = fast_config.d
        locations = tuple(make_sets(1, d, seed=7)[0])
        from repro.encoding.answers import AnswerCodec

        codec = AnswerCodec(fast_config.keysize, fast_config.k, lsp.space)
        for hot in (0, d // 2, d - 1):
            request = SingleQueryRequest(
                k=fast_config.k,
                public_key=keys.public_key,
                locations=locations,
                indicator=tuple(
                    encrypt_indicator(keys.public_key, d, hot, rng=random.Random(hot))
                ),
            )
            encrypted = lsp.answer_single_query(request, CostLedger())
            decoded = codec.decode(
                [keys.secret_key.decrypt(c) for c in encrypted.ciphertexts]
            )
            expected = [
                p.poi_id for p in lsp.engine.query(fast_config.k, [locations[hot]])
            ]
            assert [a.poi_id for a in decoded] == expected

    def test_sanitation_plan_uses_server_constants(self, medium_pois):
        server = LSPServer(
            medium_pois, gamma=0.01, eta=0.1, phi=0.2, sanitation_samples=None
        )
        sanitizer = server._sanitizer(0.05)
        from repro.stats.hypothesis import required_sample_size

        assert sanitizer.plan.n_samples == required_sample_size(
            0.05, gamma=0.01, eta=0.1, phi=0.2
        )


class TestConstruction:
    def test_defaults_match_table3(self, small_pois):
        server = LSPServer(small_pois)
        assert (server.gamma, server.eta, server.phi) == (0.05, 0.2, 0.1)
        assert server.aggregate.name == "sum"

    def test_unknown_aggregate_rejected(self, small_pois):
        with pytest.raises(ConfigurationError, match="harmonic-mean"):
            LSPServer(small_pois, aggregate_name="harmonic-mean")

    def test_aggregate_resolution(self, small_pois):
        assert LSPServer(small_pois, aggregate_name="max").aggregate.name == "max"

    @pytest.mark.parametrize("samples", [2.5, 0, -1, True, "16"])
    def test_sanitation_samples_must_be_a_positive_integer(
        self, small_pois, samples
    ):
        # A float count used to be accepted here and fail later, at the
        # first sanitized query, with a bare TypeError from numpy.
        with pytest.raises(ConfigurationError, match="sanitation_samples"):
            LSPServer(small_pois, sanitation_samples=samples)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "0"])
    def test_seed_must_be_a_non_negative_integer(self, small_pois, seed):
        # -1 and 1.5 used to reach numpy and raise a bare ValueError or
        # TypeError, from the constructor and from every reset_rng.
        with pytest.raises(ConfigurationError, match="seed"):
            LSPServer(small_pois, seed=seed)
        server = LSPServer(small_pois)
        with pytest.raises(ConfigurationError, match="seed"):
            server.reset_rng(seed)

    def test_seed_accepts_numpy_integers(self, small_pois):
        server = LSPServer(small_pois, seed=np.int64(3))
        first = server._rng.random()
        server.reset_rng(np.int64(3))
        assert server._rng.random() == first

    def test_sanitation_samples_accepts_ints_and_none(self, small_pois):
        assert LSPServer(small_pois, sanitation_samples=None).sanitation_samples is None
        server = LSPServer(small_pois, sanitation_samples=np.int64(16))
        assert server._sanitizer(0.05).plan.n_samples == 16
