"""Tests for the road-metric answer sanitation."""

import numpy as np
import pytest

from repro.datasets.synthetic import uniform_pois
from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.gnn.aggregate import SUM
from repro.roadnet import RoadNetwork, RoadNetworkEngine, RoadNetworkSanitizer
from repro.stats.hypothesis import SanitationTestPlan


@pytest.fixture(scope="module")
def network():
    return RoadNetwork.grid(nodes_per_side=12, seed=5)


@pytest.fixture(scope="module")
def engine(network):
    return RoadNetworkEngine(uniform_pois(250, seed=6), network)


def make_sanitizer(network, theta0=0.05, samples=1500, seed=0, snap_grid=32):
    plan = SanitationTestPlan.from_parameters(theta0, n_samples_override=samples)
    return RoadNetworkSanitizer(
        network, SUM, plan, np.random.default_rng(seed), snap_grid=snap_grid
    )


def spread_group(n, seed):
    rng = np.random.default_rng(seed)
    return [Point(float(x), float(y)) for x, y in rng.uniform(0, 1, (n, 2))]


class TestRoadSanitizer:
    def test_snap_grid_validation(self, network):
        plan = SanitationTestPlan.from_parameters(0.05, n_samples_override=100)
        with pytest.raises(ConfigurationError):
            RoadNetworkSanitizer(
                network, SUM, plan, np.random.default_rng(0), snap_grid=1
            )

    def test_prefix_is_a_prefix(self, network, engine):
        sanitizer = make_sanitizer(network)
        group = spread_group(5, seed=1)
        pois = engine.query(8, group)
        outcome = sanitizer.sanitize([pois], [group])[0]
        assert list(outcome.prefix) == pois[: len(outcome.prefix)]
        assert len(outcome.prefix) >= 1
        assert len(outcome.prefix) == min(outcome.safe_lengths)

    def test_single_user_passthrough(self, network, engine):
        sanitizer = make_sanitizer(network)
        user = Point(0.4, 0.4)
        pois = engine.query(5, [user])
        assert list(sanitizer.sanitize([pois], [[user]])[0].prefix) == pois

    def test_spread_group_gets_truncated(self, network, engine):
        """With users at opposite corners the ranking pins the victim down,
        so the road-metric sanitation must truncate, just like Euclidean."""
        sanitizer = make_sanitizer(network, theta0=0.3, samples=2500, seed=2)
        truncated = False
        for seed in range(5):
            group = spread_group(6, seed=seed)
            pois = engine.query(8, group)
            if len(sanitizer.sanitize([pois], [group])[0].prefix) < len(pois):
                truncated = True
                break
        assert truncated

    def test_snapping_approximation_is_tight(self, network):
        """Every snap-grid cell's stored node must be the true nearest node
        of the cell center (the table is exact at centers by construction);
        spot-check random interior points stay within one edge length."""
        sanitizer = make_sanitizer(network, snap_grid=24)
        rng = np.random.default_rng(3)
        xs, ys = network.space.sample_arrays(50, rng)
        snapped = sanitizer._snap_samples(xs, ys)
        for x, y, node_idx in zip(xs, ys, snapped, strict=True):
            true_node = network.snap(Point(float(x), float(y)))
            approx_point = network.node_point(sanitizer._nodes[int(node_idx)])
            true_point = network.node_point(true_node)
            p = Point(float(x), float(y))
            # The approximate snap is never much worse than the true snap.
            assert p.distance_to(approx_point) <= p.distance_to(true_point) + 0.2

    def test_theta_monotonicity(self, network, engine):
        group = spread_group(6, seed=9)
        pois = engine.query(8, group)
        lengths = []
        for theta0 in (0.02, 0.2, 0.6):
            sanitizer = make_sanitizer(network, theta0=theta0, seed=4)
            lengths.append(len(sanitizer.sanitize([pois], [group])[0].prefix))
        assert lengths == sorted(lengths, reverse=True)
