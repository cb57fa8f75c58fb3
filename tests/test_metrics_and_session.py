"""Tests for answer-quality metrics and the multi-query session."""

import numpy as np
import pytest

from repro.core.group import random_group
from repro.core.session import QuerySession, SessionTotals
from repro.datasets.synthetic import uniform_pois
from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.gnn.aggregate import SUM
from repro.metrics import (
    answer_precision,
    answer_recall,
    cost_ratio,
    evaluate_answer,
)


class TestQualityMetrics:
    def test_precision_recall_basics(self):
        assert answer_precision([1, 2, 3], [1, 2, 4]) == pytest.approx(2 / 3)
        assert answer_recall([1, 2, 3], [1, 2, 4]) == pytest.approx(2 / 3)
        assert answer_precision([1, 2], [1, 2]) == 1.0
        assert answer_recall([9], [1, 2]) == 0.0

    def test_precision_of_prefix_is_one(self):
        """A sanitation-truncated prefix never contains wrong POIs."""
        exact = [1, 2, 3, 4, 5]
        assert answer_precision(exact[:2], exact) == 1.0
        assert answer_recall(exact[:2], exact) == pytest.approx(0.4)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            answer_precision([], [1])
        with pytest.raises(ConfigurationError):
            answer_recall([1], [])

    def test_cost_ratio_exact_is_one(self):
        pois = uniform_pois(50, seed=1)
        locations = [Point(0.5, 0.5), Point(0.2, 0.8)]
        ranked = sorted(
            pois, key=lambda p: SUM(l.distance_to(p.location) for l in locations)
        )
        assert cost_ratio(ranked[:5], ranked[:5], locations, SUM) == pytest.approx(1.0)

    def test_cost_ratio_penalizes_bad_answers(self):
        pois = uniform_pois(50, seed=2)
        locations = [Point(0.1, 0.1)]
        ranked = sorted(
            pois, key=lambda p: SUM(l.distance_to(p.location) for l in locations)
        )
        worst = list(reversed(ranked))
        assert cost_ratio(worst[:5], ranked[:5], locations, SUM) > 2.0

    def test_cost_ratio_uses_common_depth(self):
        pois = uniform_pois(50, seed=3)
        locations = [Point(0.4, 0.6)]
        ranked = sorted(
            pois, key=lambda p: SUM(l.distance_to(p.location) for l in locations)
        )
        # A 2-POI prefix against an 8-POI exact answer scores depth 2.
        assert cost_ratio(ranked[:2], ranked[:8], locations, SUM) == pytest.approx(1.0)

    def test_evaluate_answer_bundle(self):
        pois = uniform_pois(30, seed=4)
        locations = [Point(0.3, 0.3)]
        ranked = sorted(
            pois, key=lambda p: SUM(l.distance_to(p.location) for l in locations)
        )
        quality = evaluate_answer(ranked[:3], ranked[:5], locations, SUM)
        assert quality.precision == 1.0
        assert quality.recall == pytest.approx(0.6)
        assert quality.exact


class TestQuerySession:
    def test_session_accumulates(self, lsp, fast_config):
        session = QuerySession(lsp, fast_config, seed=10)
        rng = np.random.default_rng(1)
        for _ in range(3):
            result = session.query(random_group(3, lsp.space, rng))
            assert len(result.answers) >= 1
        assert session.totals.queries == 3
        assert session.totals.comm_bytes > 0
        assert session.totals.mean_comm_bytes == pytest.approx(
            session.totals.comm_bytes / 3
        )
        assert len(session.history) == 3

    def test_distinct_seeds_per_query(self, lsp, fast_config):
        session = QuerySession(lsp, fast_config, seed=20)
        group = random_group(3, lsp.space, np.random.default_rng(2))
        a = session.query(group)
        b = session.query(group)
        # Different per-query seeds give (almost surely) different placements.
        assert a.query_index != b.query_index or a.answers == b.answers

    def test_protocol_selection(self, lsp, fast_config):
        session = QuerySession(lsp, fast_config, protocol="ppgnn-opt", seed=30)
        group = random_group(3, lsp.space, np.random.default_rng(3))
        assert session.query(group).protocol == "ppgnn-opt"

    def test_unknown_protocol_rejected(self, lsp, fast_config):
        with pytest.raises(ConfigurationError):
            QuerySession(lsp, fast_config, protocol="pigeon")

    def test_key_seed_required(self, lsp, fast_config):
        from dataclasses import replace

        with pytest.raises(ConfigurationError):
            QuerySession(lsp, replace(fast_config, key_seed=None))

    def test_reset_totals(self, lsp, fast_config):
        session = QuerySession(lsp, fast_config, seed=40)
        session.query(random_group(2, lsp.space, np.random.default_rng(4)))
        closed = session.reset_totals()
        assert closed.queries == 1
        assert session.totals.queries == 0
        assert session.history == []

    def test_history_capped_but_totals_exact(self, lsp, fast_config):
        session = QuerySession(lsp, fast_config, seed=50, max_history=2)
        rng = np.random.default_rng(5)
        answers = 0
        for _ in range(5):
            answers += len(session.query(random_group(2, lsp.space, rng)).answers)
        # Only the newest two results are pinned...
        assert len(session.history) == 2
        # ...but accounting never forgets a query.
        assert session.totals.queries == 5
        assert session.totals.answers_returned == answers

    def test_history_keeps_newest(self, lsp, fast_config):
        session = QuerySession(lsp, fast_config, seed=60, max_history=3)
        rng = np.random.default_rng(6)
        results = [session.query(random_group(2, lsp.space, rng)) for _ in range(5)]
        assert session.history == results[-3:]

    def test_zero_history(self, lsp, fast_config):
        session = QuerySession(lsp, fast_config, seed=70, max_history=0)
        session.query(random_group(2, lsp.space, np.random.default_rng(7)))
        assert session.history == []
        assert session.totals.queries == 1

    def test_unbounded_history_opt_in(self, lsp, fast_config):
        session = QuerySession(lsp, fast_config, seed=80, max_history=None)
        rng = np.random.default_rng(8)
        for _ in range(4):
            session.query(random_group(2, lsp.space, rng))
        assert len(session.history) == 4

    def test_negative_history_rejected(self, lsp, fast_config):
        with pytest.raises(ConfigurationError):
            QuerySession(lsp, fast_config, max_history=-1)

    @pytest.mark.parametrize("cap", [2.5, float("nan"), True, "3"])
    def test_history_cap_must_be_an_integer(self, lsp, fast_config, cap):
        with pytest.raises(ConfigurationError, match="max_history"):
            QuerySession(lsp, fast_config, max_history=cap)

    def test_numpy_history_cap_taken_as_int(self, lsp, fast_config):
        session = QuerySession(lsp, fast_config, max_history=np.int64(2))
        assert session.max_history == 2 and type(session.max_history) is int

    def test_totals_and_history_are_not_arguments(self, lsp, fast_config):
        with pytest.raises(TypeError):
            QuerySession(lsp, fast_config, totals=SessionTotals())
        with pytest.raises(TypeError):
            QuerySession(lsp, fast_config, history=[])

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
    def test_bad_session_seed_rejected(self, lsp, fast_config, seed):
        with pytest.raises(ConfigurationError, match="seed"):
            QuerySession(lsp, fast_config, seed=seed)

    @pytest.mark.parametrize("seed", [-1, 1.5, True])
    def test_bad_query_seed_is_typed_and_not_counted(self, lsp, fast_config, seed):
        session = QuerySession(lsp, fast_config)
        group = random_group(2, lsp.space, np.random.default_rng(9))
        with pytest.raises(ConfigurationError, match="seed"):
            session.query(group, seed=seed)
        assert session.totals.queries == 0 and session.history == []
