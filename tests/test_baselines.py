"""Tests for the APNN, IPPF, and GLP baselines."""

import numpy as np
import pytest

from repro.baselines.apnn import APNNServer, run_apnn
from repro.baselines.glp import run_glp
from repro.baselines.ippf import candidate_superset, cloak_rectangle, run_ippf
from repro.core.config import PPGNNConfig
from repro.core.group import random_group
from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.gnn.bruteforce import brute_force_kgnn
from repro.protocol.metrics import LSP, USER


def truth_ids(lsp, locations, k):
    entries = list(lsp.engine.tree.entries())
    return [p.poi_id for _, p, _ in brute_force_kgnn(entries, locations, k, lsp.aggregate)]


@pytest.fixture()
def group(lsp):
    return random_group(5, lsp.space, np.random.default_rng(77))


class TestAPNN:
    @pytest.fixture()
    def server(self, medium_pois):
        return APNNServer(medium_pois, cells_per_side=16)

    def test_invalid_grid(self, medium_pois):
        with pytest.raises(ConfigurationError):
            APNNServer(medium_pois, cells_per_side=1)

    def test_cloak_contains_user_cell(self, server):
        for location in (Point(0.02, 0.02), Point(0.5, 0.5), Point(0.99, 0.99)):
            cells = server.cloak_cells(location, 5)
            assert len(cells) == 25
            assert server.grid.cell_of(location) in cells

    def test_cloak_side_validation(self, server):
        with pytest.raises(ConfigurationError):
            server.cloak_cells(Point(0.5, 0.5), 0)
        with pytest.raises(ConfigurationError):
            server.cloak_cells(Point(0.5, 0.5), 17)

    def test_answer_is_cell_center_knn(self, server, fast_config):
        """The approximation the paper criticizes: kNN of the cell center."""
        location = Point(0.31, 0.64)
        result = run_apnn(server, location, fast_config, seed=1)
        cell = server.grid.cell_of(location)
        expected = [p.poi_id for p in server.engine.query(
            fast_config.k, [server.grid.cell_center(*cell)]
        )]
        assert list(result.answer_ids) == expected

    def test_precompute_and_invalidate(self, medium_pois):
        server = APNNServer(medium_pois, cells_per_side=4)
        assert server.precompute(k=3) == 16
        assert server.invalidate() == 16
        assert server.invalidate() == 0

    def test_precompute_equals_per_cell_queries(self, medium_pois):
        """One batched call fills the cells a per-cell loop would, with the
        same answers; cells already cached are not walked again."""
        server = APNNServer(medium_pois, cells_per_side=8)
        server._cell_answer((3, 5), 4)
        counters = server.engine.index_counters
        assert counters.queries == 1
        assert server.precompute(k=4) == 64
        assert counters.queries == 64
        assert sorted(server._cache) == sorted((cell, 4) for cell in server.grid.all_cells())
        for cell in server.grid.all_cells():
            center = server.grid.cell_center(*cell)
            expected = [p.poi_id for p in server.engine.query(4, [center])]
            assert [p.poi_id for p in server._cache[cell, 4]] == expected

    def test_lazy_cache_reused(self, server, fast_config):
        run_apnn(server, Point(0.5, 0.5), fast_config, seed=1)
        cached = len(server._cache)
        run_apnn(server, Point(0.5, 0.5), fast_config, seed=2)
        assert len(server._cache) == cached

    def test_lsp_does_no_kgnn_at_query_time(self, server, fast_config):
        """After warmup the LSP cost is pure selection (Figure 5f's story)."""
        run_apnn(server, Point(0.4, 0.4), fast_config, seed=1)  # warm cache
        result = run_apnn(server, Point(0.4, 0.4), fast_config, seed=2)
        assert result.report.ops_by_role[LSP].scalar_muls > 0

    def test_default_cloak_matches_d(self, server):
        cfg = PPGNNConfig(d=25, delta=100, keysize=128, key_seed=7)
        result = run_apnn(server, Point(0.5, 0.5), cfg, seed=1)
        assert result.extras["cloak_cells"] == 25


class TestIPPF:
    def test_cloak_rect_contains_user(self, space):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = space.sample_point(rng)
            rect = cloak_rectangle(p, 1e-4, space, rng)
            assert rect.contains_point(p)
            assert space.bounds.contains_rect(rect)

    def test_cloak_area_fraction(self, space):
        rng = np.random.default_rng(1)
        rect = cloak_rectangle(Point(0.5, 0.5), 0.01, space, rng)
        assert rect.area == pytest.approx(0.01, rel=0.01)

    def test_cloak_validation(self, space):
        with pytest.raises(ConfigurationError):
            cloak_rectangle(Point(0.5, 0.5), 0.0, space, np.random.default_rng(0))

    def test_superset_contains_truth(self, lsp, group):
        """Soundness: the candidate set must contain the exact kGNN answer
        for every placement of users inside their cloaks — in particular
        the real one."""
        rng = np.random.default_rng(2)
        rects = [cloak_rectangle(p, 1e-4, lsp.space, rng) for p in group]
        candidates = candidate_superset(lsp, rects, 8)
        candidate_ids = {p.poi_id for p in candidates}
        assert set(truth_ids(lsp, group, 8)) <= candidate_ids

    def test_answer_exact_after_filtering(self, lsp, fast_config, group):
        result = run_ippf(lsp, group, fast_config, seed=3)
        assert list(result.answer_ids) == truth_ids(lsp, group, fast_config.k)

    def test_candidate_count_reported(self, lsp, fast_config, group):
        result = run_ippf(lsp, group, fast_config, seed=4)
        assert result.extras["candidate_count"] >= fast_config.k

    def test_bigger_cloaks_more_candidates(self, lsp, fast_config, group):
        small = run_ippf(lsp, group, fast_config, area_fraction=1e-6, seed=5)
        large = run_ippf(lsp, group, fast_config, area_fraction=1e-2, seed=5)
        assert large.extras["candidate_count"] > small.extras["candidate_count"]

    def test_intra_group_chain_traffic(self, lsp, fast_config, group):
        """The filter chain hops the candidate list through the group."""
        result = run_ippf(lsp, group, fast_config, seed=6)
        assert result.report.link_bytes(USER, USER) > 0

    def test_requires_group(self, lsp, fast_config):
        with pytest.raises(ConfigurationError):
            run_ippf(lsp, [Point(0.5, 0.5)], fast_config)

    def test_no_cryptography_used(self, lsp, fast_config, group):
        result = run_ippf(lsp, group, fast_config, seed=7)
        assert result.report.ops_by_role[USER].encryptions == 0
        assert result.report.ops_by_role[LSP].scalar_muls == 0


class TestGLP:
    def test_answer_is_centroid_knn(self, lsp, fast_config, group):
        result = run_glp(lsp, group, fast_config, seed=1)
        centroid = result.extras["centroid"]
        expected_centroid = Point(
            sum(p.x for p in group) / len(group),
            sum(p.y for p in group) / len(group),
        )
        assert centroid.distance_to(expected_centroid) < 1e-6
        expected = [p.poi_id for p in lsp.engine.query(fast_config.k, [centroid])]
        assert list(result.answer_ids) == expected

    def test_quadratic_share_traffic(self, lsp, fast_config):
        """Doubling n roughly quadruples the intra-group ciphertext bytes."""
        rng = np.random.default_rng(5)
        small_group = random_group(4, lsp.space, rng)
        big_group = random_group(8, lsp.space, rng)
        small = run_glp(lsp, small_group, fast_config, seed=2)
        big = run_glp(lsp, big_group, fast_config, seed=2)
        ratio = big.report.link_bytes(USER, USER) / small.report.link_bytes(USER, USER)
        assert 3.0 < ratio < 5.0

    def test_lsp_sees_plaintext_query(self, lsp, fast_config, group):
        """Privacy II violation: the LSP-bound message is tiny plaintext."""
        result = run_glp(lsp, group, fast_config, seed=3)
        from repro.protocol.metrics import COORDINATOR

        assert result.report.link_bytes(COORDINATOR, LSP) <= 24

    def test_requires_group(self, lsp, fast_config):
        with pytest.raises(ConfigurationError):
            run_glp(lsp, [Point(0.5, 0.5)], fast_config)

    def test_approximate_not_exact_in_general(self, lsp, fast_config):
        """Over several random groups the centroid answer must diverge from
        the exact kGNN at least once (it is an approximation)."""
        diverged = False
        for seed in range(6):
            group = random_group(6, lsp.space, np.random.default_rng(300 + seed))
            result = run_glp(lsp, group, fast_config, seed=seed)
            if list(result.answer_ids) != truth_ids(lsp, group, fast_config.k):
                diverged = True
                break
        assert diverged
