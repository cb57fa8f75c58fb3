"""Cross-cutting integration tests: black-box query swap, dynamic database,
larger key sizes, and the public package surface."""

import numpy as np
import pytest

from repro import (
    LSPServer,
    PPGNNConfig,
    random_group,
    run_ppgnn,
    run_ppgnn_opt,
    run_single_user,
)
from repro.datasets import POI, load_sequoia
from repro.geometry.point import Point


class TestPublicSurface:
    def test_package_exports(self):
        import repro

        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_quickstart_docstring_flow(self):
        """The README/docstring quick start must actually run."""
        lsp = LSPServer(load_sequoia(500), sanitation_samples=800, seed=0)
        group = random_group(3, lsp.space, np.random.default_rng(7))
        cfg = PPGNNConfig(d=5, delta=15, k=4, keysize=128, key_seed=1)
        result = run_ppgnn(lsp, group, cfg, seed=42)
        assert 1 <= len(result.answers) <= 4
        assert result.report.total_comm_bytes > 0


class TestBlackBoxSwap:
    def test_custom_aggregate_flows_through_protocol(self, medium_pois):
        """Novelty 4: the protocol treats query answering as a black box —
        a custom monotone aggregate works end to end."""
        from repro.gnn.aggregate import Aggregate, get_aggregate, register_aggregate

        try:
            get_aggregate("euclidean-norm")
        except Exception:
            register_aggregate(
                Aggregate(
                    "euclidean-norm",
                    lambda ds: float(sum(d * d for d in ds)) ** 0.5,
                    lambda m: (m * m).sum(axis=1) ** 0.5,
                )
            )
        lsp = LSPServer(
            medium_pois, aggregate_name="euclidean-norm",
            sanitation_samples=800, seed=3,
        )
        cfg = PPGNNConfig(d=4, delta=12, k=4, keysize=128, key_seed=1)
        group = random_group(3, lsp.space, np.random.default_rng(11))
        result = run_ppgnn(lsp, group, cfg.without_sanitation(), seed=5)
        # Verify against a direct engine query with the same aggregate.
        expected = [p.poi_id for p in lsp.engine.query(4, group)]
        assert list(result.answer_ids) == expected


class TestDynamicDatabase:
    def test_insert_is_visible_to_next_query(self, medium_pois):
        """Novelty 1: no precomputation — updates take effect immediately."""
        lsp = LSPServer(list(medium_pois), sanitation_samples=800, seed=4)
        cfg = PPGNNConfig(
            d=4, delta=12, k=1, keysize=128, sanitize=False,
            key_seed=1,
        )
        user = Point(0.345678, 0.876543)
        before = run_single_user(lsp, user, cfg, seed=1)
        hot_dog_stand = POI(999_999, user, "popup")
        lsp.engine.insert(hot_dog_stand)
        after = run_single_user(lsp, user, cfg, seed=2)
        assert after.answer_ids[0] == 999_999
        assert before.answer_ids[0] != 999_999

    def test_delete_is_visible_to_next_query(self, medium_pois):
        lsp = LSPServer(list(medium_pois), sanitation_samples=800, seed=5)
        cfg = PPGNNConfig(
            d=4, delta=12, k=1, keysize=128, sanitize=False,
            key_seed=1,
        )
        user = medium_pois[50].location
        first = run_single_user(lsp, user, cfg, seed=1)
        assert first.answer_ids[0] == 50
        lsp.engine.delete(medium_pois[50])
        second = run_single_user(lsp, user, cfg, seed=2)
        assert second.answer_ids[0] != 50


class TestKeySizes:
    @pytest.mark.parametrize("keysize", [256, 512])
    def test_protocol_works_at_larger_keys(self, medium_pois, keysize):
        lsp = LSPServer(medium_pois, sanitation_samples=600, seed=6)
        cfg = PPGNNConfig(
            d=3, delta=9, k=3, keysize=keysize, sanitize=False,
            key_seed=2,
        )
        group = random_group(3, lsp.space, np.random.default_rng(13))
        plain = run_ppgnn(lsp, group, cfg, seed=9)
        opt = run_ppgnn_opt(lsp, group, cfg, seed=9)
        assert plain.answer_ids == opt.answer_ids
        expected = [p.poi_id for p in lsp.engine.query(3, group)]
        assert list(plain.answer_ids) == expected

    def test_ciphertext_bytes_scale_with_keysize(self, medium_pois):
        lsp = LSPServer(medium_pois, sanitation_samples=600, seed=7)
        group = random_group(3, lsp.space, np.random.default_rng(14))
        reports = {}
        for keysize in (128, 256):
            cfg = PPGNNConfig(
                d=3, delta=9, k=3, keysize=keysize, sanitize=False,
                key_seed=2,
            )
            reports[keysize] = run_ppgnn(lsp, group, cfg, seed=1).report
        from repro.protocol.metrics import COORDINATOR, LSP

        small = reports[128].link_bytes(COORDINATOR, LSP)
        large = reports[256].link_bytes(COORDINATOR, LSP)
        assert large > 1.5 * small  # indicator bytes dominate and double
