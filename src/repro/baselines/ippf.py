"""IPPF — cloak-rectangle group kNN with candidate supersets (Hashem et al. [14]).

The first group baseline of Section 8.3.2.  Each user hides its location
inside a rectangle; the LSP evaluates the kGNN query *with respect to the
rectangles*, which forces it to return every POI that could be a top-k
answer for **some** placement of the users inside their rectangles — a
candidate superset that is typically thousands of POIs.  The users then
run an incremental private filter: the candidate list travels along the
user chain, each user adding its distance contribution, and the last user
ranks the candidates and broadcasts the top-k.

Reproduced behaviours the paper measures:

- the dominant communication cost: the LSP ships the whole candidate list
  to the group, and the list then makes n - 1 hops through the chain
  (Figure 8a/8d),
- low LSP cost: one pruning pass over the database, no cryptography,
- Privacy III violated (the superset leaks database content beyond the
  answer) and Privacy IV violated (chain neighbours can collude, [2]);
  both are demonstrated programmatically in the Table 4 privacy bench.

Candidate soundness: with a monotone F, ``F(mindist(p, R_1..R_n))`` lower
bounds and ``F(maxdist(...))`` upper bounds the true cost of p for any
placement, so every POI whose lower bound is at most the k-th smallest
upper bound is kept — a superset of the true answer for every placement.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines.result import BaselineResult
from repro.core.config import PPGNNConfig
from repro.core.lsp import LSPServer
from repro.datasets.poi import POI
from repro.errors import ConfigurationError
from repro.geometry.distance import maxdist_arrays, mindist_arrays
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.gnn.bruteforce import brute_force_kgnn
from repro.protocol.messages import (
    FLOAT_BYTES,
    GenericMessage,
    INT_BYTES,
    LOCATION_BYTES,
)
from repro.protocol.metrics import LSP, USER, CostLedger

#: Bytes per candidate POI shipped by the LSP (id + coordinates).
CANDIDATE_BYTES = INT_BYTES + LOCATION_BYTES


def cloak_rectangle(
    location: Point,
    area_fraction: float,
    space,
    rng: np.random.Generator,
) -> Rect:
    """A square cloak of the given relative area, containing the location.

    The square is placed uniformly at random among the positions containing
    the user (then clamped into the space), so the location is not simply
    its center.
    """
    if not 0.0 < area_fraction <= 1.0:
        raise ConfigurationError("area_fraction must be in (0, 1]")
    b = space.bounds
    side = (area_fraction * space.area) ** 0.5
    dx = rng.uniform(0.0, side)
    dy = rng.uniform(0.0, side)
    xmin = min(max(location.x - dx, b.xmin), b.xmax - side)
    ymin = min(max(location.y - dy, b.ymin), b.ymax - side)
    xmin = max(xmin, b.xmin)
    ymin = max(ymin, b.ymin)
    return Rect(xmin, ymin, min(xmin + side, b.xmax), min(ymin + side, b.ymax))


def candidate_superset(
    lsp: LSPServer, rects: Sequence[Rect], k: int
) -> list[POI]:
    """All POIs that could be in the top-k for some placement in the rects.

    Vectorized over the whole database: per POI, the aggregate of mindist
    (lower bound) and of maxdist (upper bound) to the n rectangles; keep
    POIs whose lower bound is at most the k-th smallest upper bound.
    """
    entries = list(lsp.engine.tree.entries())
    points = np.array([[p.x for p, _ in entries], [p.y for p, _ in entries]])
    lower_cols = []
    upper_cols = []
    for rect in rects:
        lo = np.array([[rect.xmin], [rect.ymin]])
        hi = np.array([[rect.xmax], [rect.ymax]])
        lower_cols.append(mindist_arrays(points, lo, hi))
        upper_cols.append(maxdist_arrays(points, lo, hi))
    lower = lsp.aggregate.combine_rows(np.column_stack(lower_cols))
    upper = lsp.aggregate.combine_rows(np.column_stack(upper_cols))
    if len(entries) <= k:
        threshold = float(upper.max())
    else:
        threshold = float(np.partition(upper, k - 1)[k - 1])
    keep = lower <= threshold
    return [item for (_, item), flag in zip(entries, keep, strict=True) if flag]


def run_ippf(
    lsp: LSPServer,
    locations: Sequence[Point],
    config: PPGNNConfig,
    area_fraction: float = 5e-6,
    seed: int = 0,
) -> BaselineResult:
    """One IPPF round: cloak upload, candidate superset, filter chain.

    ``area_fraction`` defaults to the paper's 0.0005% of the data space.
    """
    n = len(locations)
    if n < 2:
        raise ConfigurationError("IPPF is a group protocol (n > 1)")
    ledger = CostLedger()
    rng = np.random.default_rng(seed)

    # Each user builds and uploads its cloak rectangle.
    rects = []
    for real in locations:
        with ledger.clock(USER):
            rect = cloak_rectangle(real, area_fraction, lsp.space, rng)
        ledger.record(USER, LSP, GenericMessage("ippf-cloak", 4 * FLOAT_BYTES))
        rects.append(rect)

    # LSP prunes the database down to the candidate superset and ships it.
    with ledger.clock(LSP):
        candidates = candidate_superset(lsp, rects, config.k)
    candidate_message = GenericMessage(
        "ippf-candidates", INT_BYTES + CANDIDATE_BYTES * len(candidates)
    )
    ledger.record(LSP, USER, candidate_message)

    # Incremental filter chain: the list hops through every user, each one
    # folding its own distance contribution into every candidate's partial
    # aggregate.  Decomposable aggregates (sum/max/min) accumulate exactly.
    partials: np.ndarray | None = None
    for i, real in enumerate(locations):
        with ledger.clock(USER):
            dists = np.array([real.distance_to(p.location) for p in candidates])
            if partials is None:
                partials = dists
            elif lsp.aggregate.decomposable:
                partials = lsp.aggregate.merge(partials, dists)  # type: ignore[misc]
            else:
                partials = partials  # non-decomposable F: ranked at the end
        if i < n - 1:
            hop = GenericMessage(
                "ippf-chain-hop",
                INT_BYTES + (CANDIDATE_BYTES + FLOAT_BYTES) * len(candidates),
            )
            ledger.record(USER, USER, hop)

    # The last user ranks and broadcasts the exact top-k.
    with ledger.clock(USER):
        if lsp.aggregate.decomposable:
            assert partials is not None
            ranked = sorted(
                zip(partials.tolist(), (p.location for p in candidates), candidates, strict=True),
                key=lambda t: (t[0], t[1]),
            )
            answers = tuple(p for _, _, p in ranked[: config.k])
        else:
            top = brute_force_kgnn(
                ((p.location, p) for p in candidates),
                locations,
                config.k,
                lsp.aggregate,
            )
            answers = tuple(item for _, item, _ in top)
    broadcast = GenericMessage(
        "ippf-answer", INT_BYTES + CANDIDATE_BYTES * len(answers)
    )
    for _ in range(n - 1):
        ledger.record(USER, USER, broadcast)

    return BaselineResult(
        protocol="ippf",
        answers=answers,
        report=ledger.report(),
        extras={"candidate_count": len(candidates)},
    )
