"""Tests for the inequality attack (Section 5.1)."""

import numpy as np
import pytest

from repro.attacks.inequality import inequality_attack
from repro.core.sanitize import AnswerSanitizer
from repro.datasets.synthetic import uniform_pois
from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.geometry.space import LocationSpace
from repro.gnn.aggregate import SUM
from repro.gnn.engine import GNNQueryEngine
from repro.stats.hypothesis import SanitationTestPlan


@pytest.fixture(scope="module")
def space():
    return LocationSpace.unit_square()


@pytest.fixture(scope="module")
def engine():
    return GNNQueryEngine(uniform_pois(1200, seed=33))


def group_of(n, seed):
    rng = np.random.default_rng(seed)
    return [Point(float(x), float(y)) for x, y in rng.uniform(0, 1, (n, 2))]


class TestAttackMechanics:
    def test_empty_answer_rejected(self, space):
        with pytest.raises(ConfigurationError):
            inequality_attack([], [], space, SUM)

    def test_single_poi_gives_whole_space(self, space):
        """One POI carries no ranking information: theta = 1."""
        result = inequality_attack(
            [Point(0.5, 0.5)], [Point(0.2, 0.2)], space, SUM,
            n_samples=2000, rng=np.random.default_rng(0),
        )
        assert result.theta_estimate == 1.0

    def test_region_always_contains_true_target(self, space, engine):
        """The inequalities are sound: the victim satisfies all of them."""
        for seed in range(6):
            group = group_of(5, seed)
            pois = engine.query(8, group)
            answer = [p.location for p in pois]
            for target_idx in range(len(group)):
                known = [l for i, l in enumerate(group) if i != target_idx]
                result = inequality_attack(
                    answer, known, space, SUM,
                    n_samples=500,
                    rng=np.random.default_rng(seed),
                    true_target=group[target_idx],
                )
                assert result.contains_target

    def test_more_pois_shrink_the_region(self, space, engine):
        """Each extra inequality can only cut the feasible region down."""
        group = group_of(6, 7)
        pois = engine.query(8, group)
        answer = [p.location for p in pois]
        known = group[1:]
        rng_seed = 11
        thetas = []
        for t in range(1, len(answer) + 1):
            result = inequality_attack(
                answer[:t], known, space, SUM,
                n_samples=4000, rng=np.random.default_rng(rng_seed),
            )
            thetas.append(result.theta_estimate)
        assert all(a >= b for a, b in zip(thetas, thetas[1:], strict=False))

    def test_feasible_box_bounds_samples(self, space, engine):
        group = group_of(4, 2)
        pois = engine.query(6, group)
        result = inequality_attack(
            [p.location for p in pois], group[1:], space, SUM,
            n_samples=2000, rng=np.random.default_rng(3),
        )
        if result.samples_inside:
            assert result.feasible_box is not None
            assert space.bounds.contains_rect(result.feasible_box)

    def test_succeeded_semantics(self, space):
        result = inequality_attack(
            [Point(0.5, 0.5)], [], space, SUM,
            n_samples=100, rng=np.random.default_rng(0),
        )
        assert not result.succeeded(0.5)  # theta = 1 > theta0


class TestSanitationDefeatsAttack:
    def test_sanitized_answers_resist_collusion(self, space, engine):
        """The end-to-end Privacy IV property (Theorem 5.2): after
        sanitation, every colluding majority's feasible region for the
        victim exceeds theta0 (with the test's confidence)."""
        theta0 = 0.05
        plan = SanitationTestPlan.from_parameters(theta0, n_samples_override=4000)
        sanitizer = AnswerSanitizer(space, SUM, plan, np.random.default_rng(5))
        failures = 0
        trials = 0
        for seed in range(8):
            group = group_of(6, 100 + seed)
            pois = engine.query(8, group)
            prefix = sanitizer.sanitize([pois], [group])[0].prefix
            answer = [p.location for p in prefix]
            for target_idx in range(len(group)):
                known = [l for i, l in enumerate(group) if i != target_idx]
                attack = inequality_attack(
                    answer, known, space, SUM,
                    n_samples=4000, rng=np.random.default_rng(seed),
                )
                trials += 1
                if attack.succeeded(theta0):
                    failures += 1
        # gamma = 0.05 bounds the per-test false-safe rate; allow sampling noise.
        assert failures / trials <= 0.15

    def test_unsanitized_answers_are_attackable(self, space, engine):
        """Without sanitation a distant group leaks: some victim's region
        collapses below theta0 for at least one configuration."""
        theta0 = 0.05
        attackable = 0
        for seed in range(8):
            group = group_of(6, 200 + seed)
            pois = engine.query(8, group)
            answer = [p.location for p in pois]
            for target_idx in range(len(group)):
                known = [l for i, l in enumerate(group) if i != target_idx]
                attack = inequality_attack(
                    answer, known, space, SUM,
                    n_samples=3000, rng=np.random.default_rng(seed),
                )
                if attack.succeeded(theta0):
                    attackable += 1
        assert attackable > 0
