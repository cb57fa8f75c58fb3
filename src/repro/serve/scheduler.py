"""Pluggable scheduling policies over one bounded admission queue.

A scheduler decides *which* admitted job the next free worker serves.
All policies share the bounded-queue contract: ``submit`` raises
:class:`~repro.errors.QueueFullError` at capacity (typed backpressure —
the engine counts the rejection instead of growing memory without bound),
``pop`` returns the chosen job or None, and ties always break on
``job_id`` so every policy is fully deterministic.

- :class:`FIFOScheduler` — arrival order; the fairness-free baseline.
- :class:`ShortestCostScheduler` — shortest *predicted* service time
  first (the prediction comes from :class:`~repro.serve.costs.CostModel`,
  the same clock the event loop runs on); minimizes mean latency but can
  starve expensive protocols under load.
- :class:`FairShareScheduler` — serves the tenant with the least
  cumulative predicted cost served so far (min-cost fair queuing), FIFO
  within a tenant; bounds how far one chatty tenant can push the others'
  latency.
"""

from __future__ import annotations

import heapq
from collections import defaultdict, deque

from repro.errors import ConfigurationError, QueueFullError
from repro.serve.workload import QueryJob

POLICIES = ("fifo", "shortest-cost", "fair-share")


class Scheduler:
    """Base: a bounded queue of (job, predicted service seconds)."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError("queue capacity must be >= 1")
        self.capacity = capacity
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def submit(self, job: QueryJob, cost_seconds: float) -> None:
        """Admit one job, or raise :class:`QueueFullError` at capacity."""
        if self._size >= self.capacity:
            raise QueueFullError(self._size, self.capacity)
        self._enqueue(job, cost_seconds)
        self._size += 1

    def pop(self) -> QueryJob | None:
        """The next job to serve under this policy, or None when idle."""
        if self._size == 0:
            return None
        job = self._dequeue()
        self._size -= 1
        return job

    def _enqueue(self, job: QueryJob, cost_seconds: float) -> None:
        raise NotImplementedError

    def _dequeue(self) -> QueryJob:
        raise NotImplementedError


class FIFOScheduler(Scheduler):
    """Serve in arrival order."""

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._queue: deque[tuple[QueryJob, float]] = deque()

    def _enqueue(self, job: QueryJob, cost_seconds: float) -> None:
        self._queue.append((job, cost_seconds))

    def _dequeue(self) -> QueryJob:
        return self._queue.popleft()[0]


class ShortestCostScheduler(Scheduler):
    """Serve the cheapest predicted job first (SJF on the model clock)."""

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._heap: list[tuple[float, int, QueryJob]] = []

    def _enqueue(self, job: QueryJob, cost_seconds: float) -> None:
        heapq.heappush(self._heap, (cost_seconds, job.job_id, job))

    def _dequeue(self) -> QueryJob:
        return heapq.heappop(self._heap)[2]


class FairShareScheduler(Scheduler):
    """Min-served-cost fair queuing across tenants, FIFO within a tenant."""

    def __init__(self, capacity: int) -> None:
        super().__init__(capacity)
        self._queues: dict[str, deque[tuple[QueryJob, float]]] = defaultdict(deque)
        self._served_cost: dict[str, float] = defaultdict(float)

    def _enqueue(self, job: QueryJob, cost_seconds: float) -> None:
        self._queues[job.tenant].append((job, cost_seconds))

    def _dequeue(self) -> QueryJob:
        tenant = min(
            (t for t, q in self._queues.items() if q),
            key=lambda t: (self._served_cost[t], t),
        )
        job, cost = self._queues[tenant].popleft()
        self._served_cost[tenant] += cost
        return job


def make_scheduler(policy: str, capacity: int) -> Scheduler:
    """Instantiate a policy by name (the engine's and CLI's entry point)."""
    if policy == "fifo":
        return FIFOScheduler(capacity)
    if policy == "shortest-cost":
        return ShortestCostScheduler(capacity)
    if policy == "fair-share":
        return FairShareScheduler(capacity)
    raise ConfigurationError(f"unknown policy {policy!r}; known: {list(POLICIES)}")
