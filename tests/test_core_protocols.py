"""End-to-end tests for the protocol runners: single, group, OPT, naive.

Correctness baseline: with sanitation disabled, every protocol variant
must deliver exactly the plaintext kGNN answer (Definition 2.1); with
sanitation enabled, a prefix of it.
"""

import numpy as np
import pytest

from repro.baselines.apnn import APNNServer, run_apnn
from repro.core.group import random_group, run_ppgnn
from repro.core.naive import naive_partition, run_naive
from repro.core.opt import optimal_omega, paper_omega, run_ppgnn_opt
from repro.core.single import run_single_user, run_single_user_opt
from repro.errors import ConfigurationError
from repro.gnn.bruteforce import brute_force_kgnn
from repro.protocol.metrics import COORDINATOR, LSP, USER


def truth_ids(lsp, locations, k):
    entries = list(lsp.engine.tree.entries())
    return [p.poi_id for _, p, _ in brute_force_kgnn(entries, locations, k, lsp.aggregate)]


@pytest.fixture()
def group(lsp):
    return random_group(4, lsp.space, np.random.default_rng(8))


class TestSingleUser:
    def test_exact_answer(self, lsp, fast_config, group):
        result = run_single_user(lsp, group[0], fast_config, seed=1)
        assert list(result.answer_ids) == truth_ids(lsp, [group[0]], fast_config.k)

    def test_opt_matches_plain(self, lsp, fast_config, group):
        plain = run_single_user(lsp, group[0], fast_config, seed=1)
        opt = run_single_user_opt(lsp, group[0], fast_config, seed=1)
        assert plain.answer_ids == opt.answer_ids

    def test_delta_prime_equals_d(self, lsp, fast_config, group):
        result = run_single_user(lsp, group[0], fast_config, seed=2)
        assert result.delta_prime == fast_config.d

    def test_indicator_dominates_comm(self, lsp, fast_config, group):
        result = run_single_user(lsp, group[0], fast_config, seed=3)
        report = result.report
        assert report.link_bytes(COORDINATOR, LSP) > report.link_bytes(LSP, COORDINATOR)

    def test_no_intra_group_traffic(self, lsp, fast_config, group):
        result = run_single_user(lsp, group[0], fast_config, seed=4)
        assert result.report.intra_group_comm_bytes == 0

    def test_omega_override(self, lsp, fast_config, group):
        result = run_single_user_opt(lsp, group[0], fast_config, seed=5, omega=3)
        assert list(result.answer_ids) == truth_ids(lsp, [group[0]], fast_config.k)


class TestGroupProtocol:
    def test_sanitized_answer_is_truth_prefix(self, lsp, fast_config, group):
        result = run_ppgnn(lsp, group, fast_config, seed=1)
        truth = truth_ids(lsp, group, fast_config.k)
        assert list(result.answer_ids) == truth[: len(result.answer_ids)]
        assert result.protocol == "ppgnn"

    def test_nas_returns_full_answer(self, lsp, fast_config, group):
        result = run_ppgnn(lsp, group, fast_config.without_sanitation(), seed=1)
        assert list(result.answer_ids) == truth_ids(lsp, group, fast_config.k)
        assert result.protocol == "ppgnn-nas"

    def test_delta_prime_at_least_delta(self, lsp, fast_config, group):
        result = run_ppgnn(lsp, group, fast_config, seed=2)
        assert result.delta_prime >= fast_config.delta

    def test_lsp_ran_one_kgnn_per_candidate(self, lsp, fast_config, group):
        result = run_ppgnn(lsp, group, fast_config, seed=3)
        assert lsp.last_stats.kgnn_queries == result.delta_prime

    def test_costs_populated(self, lsp, fast_config, group):
        report = run_ppgnn(lsp, group, fast_config, seed=4).report
        assert report.user_cost_seconds > 0
        assert report.lsp_cost_seconds > 0
        assert report.total_comm_bytes > 0
        assert report.link_bytes(COORDINATOR, USER) > 0  # pos broadcasts
        assert report.ops_by_role[COORDINATOR].encryptions > 0
        assert report.ops_by_role[LSP].scalar_muls > 0

    def test_empty_group_rejected(self, lsp, fast_config):
        with pytest.raises(ConfigurationError):
            run_ppgnn(lsp, [], fast_config)

    def test_works_with_n_equal_one(self, lsp, fast_config, group):
        """The group machinery subsumes n = 1 (Section 4 'subsumes §3')."""
        cfg = fast_config.for_single_user()
        result = run_ppgnn(lsp, group[:1], cfg.without_sanitation(), seed=5)
        assert list(result.answer_ids) == truth_ids(lsp, group[:1], cfg.k)

    def test_deterministic_given_seeds(self, lsp, fast_config, group):
        lsp.reset_rng(3)
        a = run_ppgnn(lsp, group, fast_config, seed=6)
        lsp.reset_rng(3)
        b = run_ppgnn(lsp, group, fast_config, seed=6)
        assert a.answer_ids == b.answer_ids
        assert a.query_index == b.query_index

    @pytest.mark.parametrize("aggregate", ["sum", "max", "min"])
    def test_all_aggregates_end_to_end(self, medium_pois, fast_config, aggregate):
        from repro.core.lsp import LSPServer

        lsp = LSPServer(
            medium_pois, aggregate_name=aggregate, sanitation_samples=1000, seed=1
        )
        group = random_group(3, lsp.space, np.random.default_rng(12))
        result = run_ppgnn(lsp, group, fast_config.without_sanitation(), seed=7)
        assert list(result.answer_ids) == truth_ids(lsp, group, fast_config.k)


class TestOptProtocol:
    def test_matches_plain_protocol(self, lsp, fast_config, group):
        lsp.reset_rng(9)
        plain = run_ppgnn(lsp, group, fast_config, seed=1)
        lsp.reset_rng(9)
        opt = run_ppgnn_opt(lsp, group, fast_config, seed=1)
        assert plain.answer_ids == opt.answer_ids
        assert opt.protocol == "ppgnn-opt"

    def test_every_omega_is_correct(self, lsp, fast_config, group):
        cfg = fast_config.without_sanitation()
        truth = truth_ids(lsp, group, cfg.k)
        for omega in (1, 2, 3, cfg.delta):
            result = run_ppgnn_opt(lsp, group, cfg, seed=2, omega=omega)
            assert list(result.answer_ids) == truth

    def test_omega_bounds_validated(self, lsp, fast_config, group):
        with pytest.raises(ConfigurationError):
            run_ppgnn_opt(lsp, group, fast_config, omega=0)

    def test_indicator_bytes_shrink_vs_plain(self, lsp, fast_config, group):
        """The Section 6 goal: OPT's coordinator->LSP traffic is smaller."""
        plain = run_ppgnn(lsp, group, fast_config, seed=3)
        opt = run_ppgnn_opt(lsp, group, fast_config, seed=3)
        assert opt.report.link_bytes(COORDINATOR, LSP) < plain.report.link_bytes(
            COORDINATOR, LSP
        )

    def test_opt_answer_costs_more_downstream(self, lsp, fast_config, group):
        """eps_2 answers are 1.5x larger than eps_1 answers."""
        plain = run_ppgnn(lsp, group, fast_config, seed=4)
        opt = run_ppgnn_opt(lsp, group, fast_config, seed=4)
        assert opt.report.link_bytes(LSP, COORDINATOR) > plain.report.link_bytes(
            LSP, COORDINATOR
        )


class TestOmegaChoice:
    def test_paper_omega_formula(self):
        assert paper_omega(8) == 2
        assert paper_omega(100) == 7
        assert paper_omega(1) == 1

    def test_optimal_omega_minimizes_cost(self):
        import math

        for delta_prime in (1, 2, 7, 8, 50, 100, 225):
            best = optimal_omega(delta_prime)

            def cost(w, dp=delta_prime):
                return 3 * w + 2 * math.ceil(dp / w)

            assert all(cost(best) <= cost(w) for w in range(1, delta_prime + 1))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            optimal_omega(0)
        with pytest.raises(ConfigurationError):
            paper_omega(0)


class TestNaive:
    def test_matches_ppgnn_answer(self, lsp, fast_config, group):
        """Without sanitation randomness, Naive and PPGNN answer identically."""
        cfg = fast_config.without_sanitation()
        ppgnn = run_ppgnn(lsp, group, cfg, seed=1)
        naive = run_naive(lsp, group, cfg, seed=1)
        assert naive.answer_ids == ppgnn.answer_ids
        assert naive.protocol == "naive"

    def test_sanitized_answer_is_truth_prefix(self, lsp, fast_config, group):
        result = run_naive(lsp, group, fast_config, seed=1)
        truth = truth_ids(lsp, group, fast_config.k)
        assert list(result.answer_ids) == truth[: len(result.answer_ids)]
        assert len(result.answer_ids) >= 1

    def test_partition_shape(self):
        params = naive_partition(5, 12)
        assert params.subgroup_sizes == (5,)
        assert params.segment_sizes == (1,) * 12
        assert params.delta_prime == 12

    def test_users_upload_delta_locations(self, lsp, fast_config, group):
        result = run_naive(lsp, group, fast_config, seed=2)
        report = result.report
        # Each of the n users ships delta locations (16 B each) + its id.
        expected = len(group) * (4 + 16 * fast_config.delta)
        assert report.link_bytes(USER, LSP) == expected

    def test_more_upload_than_ppgnn(self, lsp, fast_config, group):
        """The cost the paper criticizes: delta - d extra dummies per user."""
        ppgnn = run_ppgnn(lsp, group, fast_config, seed=3)
        naive = run_naive(lsp, group, fast_config, seed=3)
        assert naive.report.link_bytes(USER, LSP) > ppgnn.report.link_bytes(USER, LSP)


class TestKeyHolderEncryption:
    """The coordinator holds the secret key and never encrypts at full width.

    With the public nonce kernel patched to raise, every key-holding runner
    must still finish, with the answers and request ciphertexts of an
    unpatched round of the same seed.
    """

    #: runner name -> (module whose encrypt_indicator it calls, one round)
    RUNNERS = {
        "ppgnn": (
            "repro.core.group",
            lambda lsp, apnn, group, cfg: run_ppgnn(lsp, group, cfg, seed=3),
        ),
        "ppgnn-opt": (
            "repro.core.opt",
            lambda lsp, apnn, group, cfg: run_ppgnn_opt(lsp, group, cfg, seed=3),
        ),
        "naive": (
            "repro.core.naive",
            lambda lsp, apnn, group, cfg: run_naive(lsp, group, cfg, seed=3),
        ),
        "single": (
            "repro.core.single",
            lambda lsp, apnn, group, cfg: run_single_user(lsp, group[0], cfg, seed=3),
        ),
        "single-opt": (
            "repro.core.single",
            lambda lsp, apnn, group, cfg: run_single_user_opt(
                lsp, group[0], cfg, seed=3
            ),
        ),
        "apnn": (
            "repro.baselines.apnn",
            lambda lsp, apnn, group, cfg: run_apnn(apnn, group[0], cfg, seed=3),
        ),
    }

    @pytest.mark.parametrize("name", sorted(RUNNERS))
    def test_round_never_uses_the_public_nonce_kernel(
        self, name, lsp, medium_pois, fast_config, group, monkeypatch
    ):
        import importlib

        from repro.crypto.paillier import PaillierPublicKey

        module_name, runner = self.RUNNERS[name]
        apnn = APNNServer(medium_pois, cells_per_side=16) if name == "apnn" else None
        module = importlib.import_module(module_name)
        original = module.encrypt_indicator
        requests: list[int] = []

        def recording(*args, **kwargs):
            indicator = original(*args, **kwargs)
            requests.extend(c.value for c in indicator)
            return indicator

        monkeypatch.setattr(module, "encrypt_indicator", recording)

        def one_round():
            requests.clear()
            lsp.reset_rng(0)
            result = runner(lsp, apnn, group, fast_config)
            return result.answer_ids, list(requests)

        expected = one_round()

        def refuse(self, r, s=1):
            raise AssertionError("the key holder took the full-width path")

        monkeypatch.setattr(PaillierPublicKey, "obfuscate", refuse)
        assert one_round() == expected
        assert expected[0] and expected[1]


SEEDED_RUNNERS = [
    pytest.param(run_ppgnn, 3, id="ppgnn"),
    pytest.param(run_ppgnn_opt, 3, id="ppgnn-opt"),
    pytest.param(run_naive, 3, id="naive"),
    pytest.param(run_single_user, 1, id="single"),
    pytest.param(run_single_user_opt, 1, id="single-opt"),
]


class TestSeedValidation:
    """Every runner takes its seed through ``derive_rngs``, the one check."""

    @staticmethod
    def _run(runner, n, lsp, config, seed):
        group = random_group(n, lsp.space, np.random.default_rng(21))
        return runner(lsp, group[0] if n == 1 else group, config, seed=seed)

    @pytest.mark.parametrize("runner, n", SEEDED_RUNNERS)
    @pytest.mark.parametrize(
        "seed", [-1, 1.5, True, "3"], ids=["negative", "float", "bool", "str"]
    )
    def test_bad_seed_is_a_configuration_error(self, lsp, fast_config, runner, n, seed):
        with pytest.raises(ConfigurationError, match="seed must be an integer >= 0"):
            self._run(runner, n, lsp, fast_config, seed)

    @pytest.mark.parametrize("runner, n", SEEDED_RUNNERS)
    def test_numpy_seed_runs_as_int(self, lsp, fast_config, runner, n):
        outcomes = []
        for seed in (3, np.int64(3)):
            lsp.reset_rng(5)
            result = self._run(runner, n, lsp, fast_config, seed)
            outcomes.append(
                (result.answer_ids, result.query_index, result.report.total_comm_bytes)
            )
        assert outcomes[0] == outcomes[1]
