"""Integration tests of the four privacy properties (Definition 2.2).

These check observable protocol behaviour, not cryptographic reductions:
Privacy I/II via indistinguishability of what the LSP receives, Privacy III
via the information content of what users receive, and Privacy IV via the
inequality attack run against returned answers.
"""

import random
from collections import Counter

import numpy as np
import pytest

from repro.attacks.inequality import inequality_attack
from repro.core.common import build_location_set
from repro.core.config import PPGNNConfig
from repro.core.group import random_group, run_ppgnn
from repro.crypto.homomorphic import encrypt_indicator
from repro.crypto.paillier import generate_keypair
from repro.gnn.aggregate import SUM
from repro.partition.layout import GroupLayout
from repro.partition.solver import solve_partition


class TestPrivacyI:
    """Each user's real location is one of d equally likely slots."""

    def test_dummies_and_real_same_distribution_support(self, space, nprng):
        real = space.sample_point(nprng)
        location_set = build_location_set(real, 3, 10, space, nprng)
        assert len(location_set) == 10
        assert location_set[3] == real
        assert all(space.contains(l) for l in location_set)

    def test_slot_choice_uniform_over_d(self):
        """Theorem 4.3: P(slot) = (d_seg / d) * (1 / d_seg) = 1 / d."""
        layout = GroupLayout(solve_partition(8, 25, 100))
        rng = random.Random(1)
        counts = Counter(
            layout.plan_placement(rng).absolute_positions[0] for _ in range(25_000)
        )
        expected = 25_000 / 25
        assert all(0.8 * expected < counts[s] < 1.2 * expected for s in range(25))

    def test_real_location_outside_space_rejected(self, space, nprng):
        from repro.errors import ConfigurationError
        from repro.geometry.point import Point

        with pytest.raises(ConfigurationError):
            build_location_set(Point(2.0, 2.0), 0, 5, space, nprng)


class TestPrivacyII:
    """The real query hides among delta' >= delta candidates behind a
    semantically secure indicator."""

    def test_indicator_ciphertexts_lack_visible_structure(self):
        """The hot entry's ciphertext must not repeat across positions —
        semantic security makes Enc(1) and Enc(0) indistinguishable without
        the secret key; at minimum all ciphertext values must be distinct."""
        _, pk = generate_keypair(128, seed=2)
        indicator = encrypt_indicator(pk, 12, 5, rng=random.Random(3))
        values = [c.value for c in indicator]
        assert len(set(values)) == len(values)

    def test_query_index_spans_all_candidates(self):
        """Over many runs the real query occupies every candidate slot."""
        layout = GroupLayout(solve_partition(4, 4, 8))
        rng = random.Random(4)
        seen = {layout.plan_placement(rng).query_index for _ in range(600)}
        assert seen == set(range(8))

    def test_lsp_generates_at_least_delta_candidates(self, lsp, fast_config):
        group = random_group(4, lsp.space, np.random.default_rng(1))
        run_ppgnn(lsp, group, fast_config, seed=1)
        assert lsp.last_stats.candidate_count >= fast_config.delta


class TestPrivacyIII:
    """Users learn exactly the requested answer — k POIs, nothing more."""

    def test_answer_contains_at_most_k_pois(self, lsp, fast_config):
        group = random_group(4, lsp.space, np.random.default_rng(2))
        result = run_ppgnn(lsp, group, fast_config, seed=2)
        assert len(result.answers) <= fast_config.k

    def test_returned_bytes_bounded_by_m_ciphertexts(self, lsp, fast_config):
        """The LSP -> coordinator payload is exactly m ciphertexts — it
        cannot smuggle the other delta' - 1 answers."""
        from repro.protocol.metrics import COORDINATOR, LSP

        group = random_group(4, lsp.space, np.random.default_rng(3))
        result = run_ppgnn(lsp, group, fast_config, seed=3)
        l_e = 2 * fast_config.keysize // 8
        assert result.report.link_bytes(LSP, COORDINATOR) == result.m * l_e

    def test_decoded_answer_pois_exist_in_database(self, lsp, fast_config):
        group = random_group(4, lsp.space, np.random.default_rng(4))
        result = run_ppgnn(lsp, group, fast_config, seed=4)
        for answer in result.answers:
            poi = lsp.engine.poi_by_id(answer.poi_id)
            assert poi.location.distance_to(answer.location) < 1e-4


class TestPrivacyIV:
    """Under full collusion, the victim hides in >= theta0 of the space."""

    @pytest.mark.parametrize("target_idx", [0, 2, 3])
    def test_collusion_attack_on_protocol_output(self, lsp, target_idx):
        theta0 = 0.05
        cfg = PPGNNConfig(
            d=6, delta=18, k=8, keysize=128, theta0=theta0,
            key_seed=7,
        )
        failures = 0
        trials = 0
        for seed in range(5):
            group = random_group(4, lsp.space, np.random.default_rng(50 + seed))
            result = run_ppgnn(lsp, group, cfg, seed=seed)
            answer_locations = [a.location for a in result.answers]
            known = [l for i, l in enumerate(group) if i != target_idx]
            attack = inequality_attack(
                answer_locations, known, lsp.space, SUM,
                n_samples=4000, rng=np.random.default_rng(seed),
                true_target=group[target_idx],
            )
            assert attack.contains_target
            trials += 1
            if attack.succeeded(theta0):
                failures += 1
        # Type I error is bounded by gamma = 0.05 per test; tolerate noise.
        assert failures <= 1

    def test_nas_variant_documented_leak(self, lsp):
        """PPGNN-NAS makes no Privacy IV claim: with spread-out groups the
        attack succeeds for at least one configuration."""
        cfg = PPGNNConfig(
            d=6, delta=18, k=8, keysize=128, sanitize=False,
            key_seed=7,
        )
        theta0 = 0.05
        attackable = 0
        for seed in range(6):
            group = random_group(6, lsp.space, np.random.default_rng(400 + seed))
            result = run_ppgnn(lsp, group, cfg, seed=seed)
            answer_locations = [a.location for a in result.answers]
            attack = inequality_attack(
                answer_locations, group[1:], lsp.space, SUM,
                n_samples=3000, rng=np.random.default_rng(seed),
            )
            if attack.succeeded(theta0):
                attackable += 1
        assert attackable > 0
