"""Workload generation: determinism, mixes, repeats, validation."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.geometry.space import LocationSpace
from repro.serve.costs import CostModel
from repro.serve.workload import WorkloadSpec, generate_workload


@pytest.fixture(scope="module")
def space():
    return LocationSpace.unit_square()


class TestWorkloadSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(arrival="bursty")
        with pytest.raises(ConfigurationError):
            WorkloadSpec(rate_qps=0.0)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(arrival="closed", concurrency=0)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(protocol_mix={"ppgnn": 0.0})
        with pytest.raises(ConfigurationError):
            WorkloadSpec(protocol_mix={"quantum": 1.0})
        with pytest.raises(ConfigurationError):
            WorkloadSpec(repeat_fraction=1.5)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(groups=0)
        with pytest.raises(ConfigurationError):
            WorkloadSpec(tenants=())
        # Non-finite rates and fractional counts are refused up front; each
        # used to be accepted and then served a NaN report or raised a bare
        # TypeError later.
        for bad, field in (
            ({"rate_qps": float("nan")}, "rate_qps"),
            ({"rate_qps": float("inf")}, "rate_qps"),
            ({"think_seconds": float("nan")}, "think_seconds"),
            ({"think_seconds": float("inf")}, "think_seconds"),
            # A str, None or an integer too large for a float raised a
            # bare TypeError or OverflowError.
            ({"rate_qps": "4"}, "rate_qps"),
            ({"rate_qps": 10**400}, "rate_qps"),
            ({"think_seconds": None}, "think_seconds"),
            ({"repeat_fraction": "x"}, "repeat_fraction"),
            ({"concurrency": 2.5}, "concurrency"),
            ({"arrival": "closed", "concurrency": 2.5}, "concurrency"),
            ({"queries": 2.5}, "queries"),
            ({"queries": -1}, "queries"),
            ({"queries": True}, "queries"),
            ({"groups": 2.5}, "groups"),
            # A negative seed used to reach numpy and raise a bare
            # ValueError from generate_workload.
            ({"seed": -1}, "seed"),
            ({"seed": 1.5}, "seed"),
            ({"seed": True}, "seed"),
            # A non-finite weight used to pass and then raise a bare
            # ValueError from random.choices in generate_workload, a str
            # weight a bare TypeError here, and a bool counted as 1.
            ({"protocol_mix": {"ppgnn": float("nan")}}, "protocol_mix"),
            ({"group_size_mix": {3: float("inf")}}, "group_size_mix"),
            ({"k_mix": {8: float("-inf")}}, "k_mix"),
            ({"k_mix": {8: 1e308, 4: 1e308}}, "k_mix"),
            ({"k_mix": {8: 10**400}}, "k_mix"),
            ({"k_mix": {8: "1"}}, "k_mix"),
            ({"k_mix": {8: True}}, "k_mix"),
            ({"protocol_mix": {"ppgnn": None}}, "protocol_mix"),
            # A str used to be split into one tenant per character.
            ({"tenants": "t0"}, "tenants"),
            ({"tenants": ("t0", 1)}, "tenants"),
            ({"tenants": None}, "tenants"),
        ):
            with pytest.raises(ConfigurationError, match=field):
                WorkloadSpec(**bad)
        assert WorkloadSpec(queries=0, groups=np.int64(2)).groups == 2
        spec = WorkloadSpec(seed=np.int64(3))
        assert spec.seed == 3 and type(spec.seed) is int
        assert WorkloadSpec(tenants=["a", "b"]).tenants == ("a", "b")
        spec = WorkloadSpec(k_mix={8: np.float64(2.0), 4: 1})
        assert spec.k_mix == {8: 2.0, 4: 1}


class TestGeneration:
    def test_same_spec_same_workload(self, space):
        spec = WorkloadSpec(
            queries=30,
            protocol_mix={"ppgnn": 1.0, "naive": 1.0},
            group_size_mix={2: 1.0, 4: 1.0},
            tenants=("a", "b", "c"),
            groups=5,
            repeat_fraction=0.3,
            seed=17,
        )
        one = generate_workload(spec, space)
        two = generate_workload(spec, space)
        assert one.jobs == two.jobs
        assert one.groups == two.groups

    def test_different_seeds_differ(self, space):
        base = dict(queries=30, groups=5, repeat_fraction=0.0)
        one = generate_workload(WorkloadSpec(seed=1, **base), space)
        two = generate_workload(WorkloadSpec(seed=2, **base), space)
        assert one.jobs != two.jobs

    def test_arrivals_strictly_increase(self, space):
        workload = generate_workload(WorkloadSpec(queries=40, rate_qps=5.0), space)
        times = [job.arrival_time for job in workload.jobs]
        assert times == sorted(times)
        assert all(t > 0 for t in times)

    def test_groups_round_robin_tenants(self, space):
        workload = generate_workload(
            WorkloadSpec(queries=1, tenants=("x", "y"), groups=4), space
        )
        assert [g.tenant for g in workload.groups] == ["x", "y", "x", "y"]

    def test_repeats_are_verbatim(self, space):
        spec = WorkloadSpec(queries=60, groups=3, repeat_fraction=0.5, seed=3)
        workload = generate_workload(spec, space)
        repeats = [job for job in workload.jobs if job.repeat_of is not None]
        assert repeats  # probability of zero repeats in 60 draws is negligible
        for job in repeats:
            original = workload.jobs[job.repeat_of]
            assert original.repeat_of is None  # repeat_of always names the root
            assert (job.group_id, job.protocol, job.k, job.seed) == (
                original.group_id,
                original.protocol,
                original.k,
                original.seed,
            )

    def test_fresh_jobs_have_unique_seeds(self, space):
        workload = generate_workload(WorkloadSpec(queries=50, groups=4), space)
        seeds = [job.seed for job in workload.jobs]
        assert len(set(seeds)) == len(seeds)

    def test_mix_draws_respect_support(self, space):
        spec = WorkloadSpec(
            queries=40,
            protocol_mix={"ppgnn-opt": 1.0},
            group_size_mix={2: 1.0},
            k_mix={4: 2.0, 6: 1.0},
            groups=3,
        )
        workload = generate_workload(spec, space)
        assert {job.protocol for job in workload.jobs} == {"ppgnn-opt"}
        assert {job.k for job in workload.jobs} <= {4, 6}
        assert all(len(g.locations) == 2 for g in workload.groups)


class TestCostModel:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CostModel(encryption_seconds=0.0)

    def test_opt_is_predicted_cheaper_than_naive(self):
        from repro.core.config import PPGNNConfig

        model = CostModel()
        config = PPGNNConfig(d=4, delta=16, k=3, keysize=128)
        naive = model.predict_seconds("naive", 3, config)
        ppgnn = model.predict_seconds("ppgnn", 3, config)
        assert naive > 0 and ppgnn > 0

    def test_keysize_scaling_is_cubic(self):
        from dataclasses import replace

        from repro.core.config import PPGNNConfig

        model = CostModel(kgnn_seconds=1e-12)  # isolate the crypto term
        small = PPGNNConfig(d=4, delta=8, k=3, keysize=128)
        large = replace(small, keysize=256)
        ratio = model.predict_seconds("ppgnn", 2, large) / model.predict_seconds(
            "ppgnn", 2, small
        )
        # Per-op cost scales by (256/128)^3 = 8, but a wider key also packs
        # more POIs per answer ciphertext (m shrinks), so the round-level
        # ratio lands strictly between linear and cubic.
        assert 2.0 < ratio <= 8.0

    def test_unknown_protocol_rejected(self):
        from repro.core.config import PPGNNConfig

        with pytest.raises(ConfigurationError):
            CostModel().predict_seconds("psst", 2, PPGNNConfig(d=4, delta=8, k=3))
