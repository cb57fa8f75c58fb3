"""Deterministic workload generation for the serving engine.

A workload is a fixed fleet of *groups* (each with a stable membership and
location vector, modeling friends who query together repeatedly) plus a
seeded stream of :class:`QueryJob` arrivals over those groups.  Everything
is a pure function of the spec — two calls with the same spec produce the
same groups, the same protocol/k draws, the same Poisson arrival times.

``repeat_fraction`` models the hot-query phenomenon a cache exists for: a
repeat re-issues an earlier job *verbatim* — same group, protocol, k, and
per-query seed — so the coordinator draws the same dummies and placement
plan and the LSP sees the exact candidate queries it already answered.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from repro.errors import ConfigurationError, finite_real, positive_int
from repro.geometry.point import Point
from repro.geometry.space import LocationSpace

_PROTOCOLS = ("ppgnn", "ppgnn-opt", "naive")

#: Multiplier separating per-job seed streams from the spec seed.
_SEED_STRIDE = 1_000_003


@dataclass(frozen=True, slots=True)
class GroupProfile:
    """One long-lived query group: stable members, stable tenant."""

    group_id: int
    tenant: str
    locations: tuple[Point, ...]


@dataclass(frozen=True, slots=True)
class QueryJob:
    """One query arrival, fully determined at generation time.

    ``seed`` pins the round's randomness (dummies, placement plan,
    sanitation sampling), so re-running a job reproduces it exactly;
    ``repeat_of`` names the earlier job this one re-issues verbatim.
    """

    job_id: int
    tenant: str
    group_id: int
    protocol: str
    k: int
    seed: int
    arrival_time: float
    repeat_of: int | None = None


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of a serving workload.

    Attributes
    ----------
    queries:
        Total jobs to generate.
    arrival:
        ``"poisson"`` — open loop, exponential inter-arrivals at
        ``rate_qps``; ``"closed"`` — ``concurrency`` clients that each
        issue the next job ``think_seconds`` after their previous one
        completes (arrival times are then assigned by the engine's
        event loop, not here).
    protocol_mix / group_size_mix / k_mix:
        Weighted draws for each fresh (non-repeat) job.
    tenants:
        Tenant names (a non-empty tuple or list of strings, stored as a
        tuple); groups are assigned round-robin.
    groups:
        Distinct group count (each with fixed membership and locations).
    repeat_fraction:
        Probability a job re-issues a uniformly chosen earlier job.
    """

    queries: int = 50
    arrival: str = "poisson"
    rate_qps: float = 4.0
    concurrency: int = 4
    think_seconds: float = 0.0
    protocol_mix: Mapping[str, float] = field(
        default_factory=lambda: MappingProxyType({"ppgnn": 1.0})
    )
    group_size_mix: Mapping[int, float] = field(
        default_factory=lambda: MappingProxyType({3: 1.0})
    )
    k_mix: Mapping[int, float] = field(
        default_factory=lambda: MappingProxyType({8: 1.0})
    )
    tenants: tuple[str, ...] = ("tenant-0",)
    groups: int = 4
    repeat_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        # Counts and the seed are stored as ints: `generate_workload` seeds
        # `random.Random`, which refuses a numpy integer, and json cannot
        # serialise one.
        for name, floor in (("queries", 0), ("seed", 0), ("concurrency", 1), ("groups", 1)):
            object.__setattr__(self, name, positive_int(getattr(self, name), name, floor))
        if self.arrival not in ("poisson", "closed"):
            raise ConfigurationError("arrival must be 'poisson' or 'closed'")
        if not finite_real(self.rate_qps) or (
            self.arrival == "poisson" and self.rate_qps <= 0
        ):
            raise ConfigurationError(
                f"rate_qps must be finite and positive, not {self.rate_qps!r}"
            )
        if not (finite_real(self.think_seconds) and self.think_seconds >= 0):
            raise ConfigurationError(
                f"think_seconds must be finite and non-negative, "
                f"not {self.think_seconds!r}"
            )
        if (
            not isinstance(self.tenants, (tuple, list))
            or not self.tenants
            or not all(isinstance(tenant, str) for tenant in self.tenants)
        ):
            raise ConfigurationError(
                f"tenants must be a non-empty tuple or list of names, not {self.tenants!r}"
            )
        object.__setattr__(self, "tenants", tuple(self.tenants))
        if not (finite_real(self.repeat_fraction) and 0.0 <= self.repeat_fraction <= 1.0):
            raise ConfigurationError(
                f"repeat_fraction must be in [0, 1], not {self.repeat_fraction!r}"
            )
        for name, mix in (
            ("protocol_mix", self.protocol_mix),
            ("group_size_mix", self.group_size_mix),
            ("k_mix", self.k_mix),
        ):
            if not isinstance(mix, Mapping) or not mix:
                raise ConfigurationError(f"{name} must be a non-empty mapping")
            # random.choices needs weights with a finite total.
            if not (
                all(finite_real(weight) and weight > 0 for weight in mix.values())
                and math.isfinite(sum(map(float, mix.values())))
            ):
                raise ConfigurationError(
                    f"{name} needs positive real weights with a finite total, "
                    f"not {dict(mix)!r}"
                )
        for protocol in self.protocol_mix:
            if protocol not in _PROTOCOLS:
                raise ConfigurationError(
                    f"unknown protocol {protocol!r}; known: {list(_PROTOCOLS)}"
                )
        for size in self.group_size_mix:
            positive_int(size, "a group size")
        for k in self.k_mix:
            positive_int(k, "k")


@dataclass(frozen=True, slots=True)
class Workload:
    """A generated workload: the group fleet plus the ordered job stream."""

    spec: WorkloadSpec
    groups: tuple[GroupProfile, ...]
    jobs: tuple[QueryJob, ...]

    def group(self, group_id: int) -> GroupProfile:
        return self.groups[group_id]


def _draw(rng: random.Random, mix: Mapping) -> object:
    choices = list(mix)
    weights = [mix[choice] for choice in choices]
    return rng.choices(choices, weights=weights)[0]


def generate_workload(spec: WorkloadSpec, space: LocationSpace) -> Workload:
    """Materialize a spec into concrete groups and jobs (pure in the seed)."""
    rng = random.Random(spec.seed)
    nprng = np.random.default_rng(spec.seed)
    groups = []
    for group_id in range(spec.groups):
        size = _draw(rng, spec.group_size_mix)
        groups.append(
            GroupProfile(
                group_id=group_id,
                tenant=spec.tenants[group_id % len(spec.tenants)],
                locations=tuple(space.sample_points(size, nprng)),
            )
        )

    jobs: list[QueryJob] = []
    clock = 0.0
    for job_id in range(spec.queries):
        if spec.arrival == "poisson":
            clock += rng.expovariate(spec.rate_qps)
        arrival = clock if spec.arrival == "poisson" else 0.0
        if jobs and rng.random() < spec.repeat_fraction:
            earlier = jobs[rng.randrange(len(jobs))]
            jobs.append(
                QueryJob(
                    job_id=job_id,
                    tenant=earlier.tenant,
                    group_id=earlier.group_id,
                    protocol=earlier.protocol,
                    k=earlier.k,
                    seed=earlier.seed,
                    arrival_time=arrival,
                    repeat_of=(
                        earlier.repeat_of
                        if earlier.repeat_of is not None
                        else earlier.job_id
                    ),
                )
            )
            continue
        group = groups[rng.randrange(len(groups))]
        jobs.append(
            QueryJob(
                job_id=job_id,
                tenant=group.tenant,
                group_id=group.group_id,
                protocol=_draw(rng, spec.protocol_mix),
                k=_draw(rng, spec.k_mix),
                seed=spec.seed * _SEED_STRIDE + job_id,
                arrival_time=arrival,
            )
        )
    return Workload(spec=spec, groups=tuple(groups), jobs=tuple(jobs))
