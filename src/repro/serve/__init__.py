"""repro.serve: a deterministic concurrent query-serving engine.

Runs many PPGNN/PPGNN-OPT/Naive sessions against one shared LSP with a
seeded workload generator, pluggable scheduling policies behind bounded
queues, bucketed execution over LSP replicas, and shared caches (nonce pools
per public key, an LRU of kNN candidate answers).  See SERVING.md.
"""

from repro.serve.cache import CacheStats, KnnLRUCache, knn_cache_key
from repro.serve.costs import CostModel
from repro.serve.engine import (
    PlannedJob,
    RejectedJob,
    ServeConfig,
    ServeEngine,
    ServingReport,
)
from repro.serve.pool import BucketRunner, JobOutcome, LSPSpec, RunnerOptions
from repro.serve.scheduler import (
    POLICIES,
    FairShareScheduler,
    FIFOScheduler,
    Scheduler,
    ShortestCostScheduler,
    make_scheduler,
)
from repro.serve.workload import (
    GroupProfile,
    QueryJob,
    Workload,
    WorkloadSpec,
    generate_workload,
)

__all__ = [
    "CacheStats",
    "KnnLRUCache",
    "knn_cache_key",
    "CostModel",
    "PlannedJob",
    "RejectedJob",
    "ServeConfig",
    "ServeEngine",
    "ServingReport",
    "BucketRunner",
    "JobOutcome",
    "LSPSpec",
    "RunnerOptions",
    "POLICIES",
    "Scheduler",
    "FIFOScheduler",
    "ShortestCostScheduler",
    "FairShareScheduler",
    "make_scheduler",
    "GroupProfile",
    "QueryJob",
    "Workload",
    "WorkloadSpec",
    "generate_workload",
]
