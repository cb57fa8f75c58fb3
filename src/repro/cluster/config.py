"""Cluster configuration: shards, replicas, quorum, hedging, routing.

:class:`ClusterConfig` is the single validated knob set the serving
engine threads down to every bucket cell.  Like every config in this
library it is frozen and a pure value — two cells built from the same
config behave identically, which is what keeps serial and
multiprocessing cluster runs byte-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cluster.faults import ShardFaultPlan
from repro.errors import ConfigurationError
from repro.partition.spatial import PARTITION_STRATEGIES
from repro.serve.costs import CostModel


@dataclass(frozen=True)
class ClusterConfig:
    """Tunables of one sharded scatter–gather deployment.

    Attributes
    ----------
    shards:
        Number of disjoint POI partitions; each sub-query fans out to all
        of them (the merge needs every shard's local top-k).
    replicas:
        Identical copies of each shard; failover and hedging choose among
        them via the consistent-hash preference list.
    quorum:
        Minimum covered-POI *fraction* for a degraded answer: when shards
        are irrecoverably lost mid-query, coverage at or above the quorum
        yields a typed :class:`~repro.cluster.merge.PartialAnswer`; below
        it, the query fails with
        :class:`~repro.errors.ShardLostError`.
    partition:
        POI partition strategy (see :mod:`repro.partition.spatial`).
    virtual_nodes:
        Consistent-hash ring points per replica (routing smoothness).
    hedge_factor:
        Hedge a straggler sub-query when its simulated duration exceeds
        ``hedge_factor`` times the cost-model prediction; ``None``
        disables hedging.
    failover_backoff_seconds:
        Simulated backoff charged before each failover attempt, doubled
        per attempt (deadline-aware: attempts stop once
        ``deadline_seconds`` of simulated scatter time is spent).
    faults:
        Scripted shard failures injected into every serving cell.
    cost_model:
        Predicts per-sub-query service seconds for the scatter's
        simulated clock (hedging decisions, per-shard load accounting).
    """

    shards: int = 2
    replicas: int = 1
    quorum: float = 0.5
    partition: str = "spatial"
    virtual_nodes: int = 16
    hedge_factor: float | None = 2.0
    failover_backoff_seconds: float = 0.01
    faults: ShardFaultPlan | None = None
    cost_model: CostModel = field(default_factory=CostModel)

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigurationError("shards must be >= 1")
        if self.replicas < 1:
            raise ConfigurationError("replicas must be >= 1")
        if not 0.0 < self.quorum <= 1.0:
            raise ConfigurationError("quorum must be in (0, 1]")
        if self.partition not in PARTITION_STRATEGIES:
            raise ConfigurationError(
                f"unknown partition strategy {self.partition!r}; "
                f"known: {list(PARTITION_STRATEGIES)}"
            )
        if self.virtual_nodes < 1:
            raise ConfigurationError("virtual_nodes must be >= 1")
        if self.hedge_factor is not None and self.hedge_factor <= 1.0:
            raise ConfigurationError("hedge_factor must be > 1.0 or None")
        if self.failover_backoff_seconds < 0:
            raise ConfigurationError(
                "failover_backoff_seconds must be non-negative"
            )
        if self.faults is not None:
            for shard, replica in self.faults.replicas:
                if shard >= self.shards or replica >= self.replicas:
                    raise ConfigurationError(
                        f"fault on (shard {shard}, replica {replica}) is "
                        f"outside the {self.shards}x{self.replicas} cluster"
                    )
