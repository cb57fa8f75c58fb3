"""Byte-exact consistency between the cost model and the simulated ledger.

Runs every protocol variant and asserts that the predicted communication
equals the ledger's measured total *exactly* — the strongest executable
form of the paper's Table 2 analysis.
"""

import numpy as np
import pytest

from repro.analysis import (
    predict_naive_comm,
    predict_opt_comm,
    predict_ppgnn_comm,
    predict_single_comm,
)
from repro.core.group import random_group, run_ppgnn
from repro.core.naive import run_naive
from repro.core.opt import run_ppgnn_opt
from repro.core.single import run_single_user
from repro.errors import ConfigurationError


@pytest.fixture()
def group(lsp):
    return random_group(5, lsp.space, np.random.default_rng(55))


class TestExactAgreement:
    def test_ppgnn_total_matches_ledger(self, lsp, fast_config, group):
        result = run_ppgnn(lsp, group, fast_config, seed=1)
        predicted = predict_ppgnn_comm(
            n=len(group),
            d=fast_config.d,
            delta=fast_config.delta,
            k=fast_config.k,
            keysize=fast_config.keysize,
            answer_len=len(result.answers),
        )
        assert predicted.total == result.report.total_comm_bytes

    def test_ppgnn_components_match_links(self, lsp, fast_config, group):
        from repro.protocol.metrics import COORDINATOR, LSP, USER

        result = run_ppgnn(lsp, group, fast_config, seed=2)
        predicted = predict_ppgnn_comm(
            n=len(group),
            d=fast_config.d,
            delta=fast_config.delta,
            k=fast_config.k,
            keysize=fast_config.keysize,
            answer_len=len(result.answers),
        )
        report = result.report
        assert predicted.uploads == report.link_bytes(USER, LSP)
        assert predicted.request == report.link_bytes(COORDINATOR, LSP)
        assert predicted.encrypted_answer == report.link_bytes(LSP, COORDINATOR)
        assert (
            predicted.position_broadcasts + predicted.answer_broadcast
            == report.link_bytes(COORDINATOR, USER)
        )

    def test_opt_total_matches_ledger(self, lsp, fast_config, group):
        result = run_ppgnn_opt(lsp, group, fast_config, seed=3)
        predicted = predict_opt_comm(
            n=len(group),
            d=fast_config.d,
            delta=fast_config.delta,
            k=fast_config.k,
            keysize=fast_config.keysize,
            answer_len=len(result.answers),
        )
        assert predicted.total == result.report.total_comm_bytes

    def test_opt_with_omega_override(self, lsp, fast_config, group):
        cfg = fast_config.without_sanitation()
        result = run_ppgnn_opt(lsp, group, cfg, seed=4, omega=3)
        predicted = predict_opt_comm(
            n=len(group),
            d=cfg.d,
            delta=cfg.delta,
            k=cfg.k,
            keysize=cfg.keysize,
            omega=3,
        )
        assert predicted.total == result.report.total_comm_bytes

    def test_naive_total_matches_ledger(self, lsp, fast_config, group):
        result = run_naive(lsp, group, fast_config, seed=5)
        predicted = predict_naive_comm(
            n=len(group),
            delta=fast_config.delta,
            k=fast_config.k,
            keysize=fast_config.keysize,
            answer_len=len(result.answers),
        )
        assert predicted.total == result.report.total_comm_bytes

    def test_single_total_matches_ledger(self, lsp, fast_config, group):
        result = run_single_user(lsp, group[0], fast_config, seed=6)
        predicted = predict_single_comm(
            d=fast_config.d, k=fast_config.k, keysize=fast_config.keysize
        )
        assert predicted.total == result.report.total_comm_bytes

    @pytest.mark.parametrize("keysize", [128, 256])
    @pytest.mark.parametrize("n,d,delta,k", [(2, 4, 8, 2), (6, 5, 20, 5)])
    def test_agreement_across_parameters(self, lsp, keysize, n, d, delta, k):
        from repro.core.config import PPGNNConfig

        cfg = PPGNNConfig(
            d=d, delta=delta, k=k, keysize=keysize, sanitize=False,
            key_seed=9,
        )
        group = random_group(n, lsp.space, np.random.default_rng(n * d))
        result = run_ppgnn(lsp, group, cfg, seed=7)
        predicted = predict_ppgnn_comm(n=n, d=d, delta=delta, k=k, keysize=keysize)
        assert predicted.total == result.report.total_comm_bytes


class TestModelProperties:
    def test_opt_beats_plain_at_default_scale(self):
        plain = predict_ppgnn_comm(n=8, d=25, delta=100, k=8, keysize=1024)
        opt = predict_opt_comm(n=8, d=25, delta=100, k=8, keysize=1024)
        assert opt.total < plain.total

    def test_naive_worst_at_default_scale(self):
        plain = predict_ppgnn_comm(n=8, d=25, delta=100, k=8, keysize=1024)
        naive = predict_naive_comm(n=8, delta=100, k=8, keysize=1024)
        assert naive.total > plain.total

    def test_answer_len_validation(self):
        with pytest.raises(ConfigurationError):
            predict_ppgnn_comm(n=2, d=4, delta=8, k=4, keysize=256, answer_len=5)

    def test_breakdown_total_is_sum(self):
        b = predict_ppgnn_comm(n=4, d=5, delta=20, k=4, keysize=256)
        assert b.total == (
            b.position_broadcasts
            + b.request
            + b.uploads
            + b.encrypted_answer
            + b.answer_broadcast
        )
