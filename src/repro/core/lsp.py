"""The location-based service provider (LSP).

Owns the POI database behind a :class:`~repro.gnn.engine.GNNQueryEngine`,
executes Algorithm 2 (candidate-query generation, one batch of kGNN
queries for the candidates, answer sanitation, private selection), and
serves the single-user protocol of Section 3 plus the two-phase selection
of PPGNN-OPT.  Every request
handler charges its computation to the ledger's LSP clock and its
homomorphic work to the LSP operation counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.crypto.homomorphic import matrix_select, nested_select
from repro.crypto.paillier import PaillierPublicKey
from repro.datasets.poi import POI
from repro.encoding.answers import AnswerCodec
from repro.errors import ProtocolError, positive_int
from repro.geometry.point import Point
from repro.geometry.space import LocationSpace
from repro.gnn.engine import GNNQueryEngine
from repro.core.sanitize import AnswerSanitizer
from repro.partition.layout import GroupLayout
from repro.partition.solver import PartitionParameters
from repro.protocol.messages import (
    EncryptedAnswer,
    GroupQueryRequest,
    LocationSetUpload,
    OptGroupQueryRequest,
    OptSingleQueryRequest,
    SingleQueryRequest,
)
from repro.protocol.metrics import LSP, CostLedger
from repro.stats.hypothesis import SanitationTestPlan


@dataclass
class QueryStats:
    """Diagnostics of the most recent request (simulation introspection only)."""

    candidate_count: int = 0
    kgnn_queries: int = 0
    sanitized_answer_lengths: tuple[int, ...] = ()
    sanitation_samples: int = 0


class LSPServer:
    """A semi-honest LSP serving privacy-preserving (group) kNN queries."""

    def __init__(
        self,
        pois: Sequence[POI] | None = None,
        space: LocationSpace | None = None,
        aggregate_name: str = "sum",
        gamma: float = 0.05,
        eta: float = 0.2,
        phi: float = 0.1,
        sanitation_samples: int | None = None,
        seed: int = 0,
        engine=None,
        index: str = "rtree",
    ) -> None:
        """Build the provider from a POI list or a custom query engine.

        ``engine`` is the protocol's query black box (Section 1, novelty 4):
        anything with ``query(k, locations)`` / ``poi_by_id`` works, e.g.
        :class:`~repro.roadnet.engine.RoadNetworkEngine` for road-network
        distance.  The Monte-Carlo answer sanitation is metric-aware:
        Euclidean engines use :class:`~repro.core.sanitize.AnswerSanitizer`,
        road-network engines the road-metric sanitizer of
        :mod:`repro.roadnet.sanitize`; any other custom engine must run
        PPGNN-NAS (``sanitize=False``).
        """
        from repro.gnn.aggregate import get_aggregate

        if sanitation_samples is not None:
            positive_int(sanitation_samples, "sanitation_samples")
        seed = positive_int(seed, "seed", floor=0)
        self.space = space or LocationSpace.unit_square()
        if engine is not None:
            if pois is not None:
                raise ProtocolError("pass either pois or engine, not both")
            self.engine = engine
            self.aggregate = getattr(engine, "aggregate", None) or get_aggregate(
                aggregate_name
            )
            self._sanitation_supported = isinstance(engine, GNNQueryEngine)
        else:
            if not pois:
                raise ProtocolError("the POI database must be non-empty")
            self.aggregate = get_aggregate(aggregate_name)
            self.engine = GNNQueryEngine(
                pois,
                aggregate=self.aggregate,
                index=index,
                space=self.space,
            )
            self._sanitation_supported = True
        self.gamma = gamma
        self.eta = eta
        self.phi = phi
        self.sanitation_samples = sanitation_samples
        self._rng = np.random.default_rng(seed)
        self._road_sanitizers: dict[float, object] = {}
        self.last_stats = QueryStats()

    def reset_rng(self, seed: int) -> None:
        """Re-seed the sanitation sampler.

        The sanitizer draws fresh Monte-Carlo samples per candidate, so two
        otherwise identical queries can sanitize borderline prefixes to
        different lengths.  Tests and A/B benchmark comparisons pin the
        sampler with this before each run to make outcomes bit-identical.
        """
        self._rng = np.random.default_rng(positive_int(seed, "seed", floor=0))
        for sanitizer in self._road_sanitizers.values():
            sanitizer.rng = self._rng  # type: ignore[attr-defined]

    # ------------------------------------------------------------ internals

    def _codec(self, public_key: PaillierPublicKey, k: int) -> AnswerCodec:
        return AnswerCodec(public_key.key_bits, k, self.space)

    def _sanitizer(self, theta0: float):
        plan = SanitationTestPlan.from_parameters(
            theta0,
            gamma=self.gamma,
            eta=self.eta,
            phi=self.phi,
            n_samples_override=self.sanitation_samples,
        )
        if self._sanitation_supported:
            return AnswerSanitizer(self.space, self.aggregate, plan, self._rng)
        # Road-network engines get the road-metric sanitizer; its snap grid
        # is expensive to build, so it is cached per theta0.
        from repro.roadnet.engine import RoadNetworkEngine

        if isinstance(self.engine, RoadNetworkEngine):
            cached = self._road_sanitizers.get(theta0)
            if cached is None or cached.plan != plan:
                from repro.roadnet.sanitize import RoadNetworkSanitizer

                cached = RoadNetworkSanitizer(
                    self.engine.network, self.aggregate, plan, self._rng
                )
                self._road_sanitizers[theta0] = cached
            return cached
        raise ProtocolError(
            "answer sanitation needs a metric-aware sampler; the installed "
            "engine is neither Euclidean nor road-network — run PPGNN-NAS "
            "(sanitize=False) instead"
        )

    def _answer_columns(
        self,
        candidates: Iterable[tuple[Point, ...]],
        k: int,
        theta0: float | None,
        codec: AnswerCodec,
    ) -> list[list[int]]:
        """Lines 2-6 of Algorithm 2: one encoded answer column per candidate.

        An engine with ``query_many`` answers every candidate's kGNN query
        in one call; any other engine is queried per candidate.  Either
        way the answers are sanitized and encoded in candidate order, so
        the sanitizer draws its samples in the same order.
        """
        sanitizer = self._sanitizer(theta0) if theta0 is not None else None
        candidates = list(candidates)
        query_many = getattr(self.engine, "query_many", None)
        if query_many is not None:
            answers = query_many(k, candidates)
        else:
            answers = [self.engine.query(k, candidate) for candidate in candidates]
        columns: list[list[int]] = []
        lengths: list[int] = []
        for candidate, pois in zip(candidates, answers, strict=True):
            if sanitizer is not None:
                pois = list(sanitizer.sanitize(pois, candidate).prefix)
            lengths.append(len(pois))
            columns.append(codec.encode(pois))
        self.last_stats = QueryStats(
            candidate_count=len(candidates),
            kgnn_queries=len(candidates),
            sanitized_answer_lengths=tuple(lengths),
            sanitation_samples=sanitizer.plan.n_samples if sanitizer else 0,
        )
        return columns

    @staticmethod
    def _rows(columns: list[list[int]]) -> list[list[int]]:
        """Transpose candidate-major columns into the m x delta' matrix A."""
        if not columns:
            raise ProtocolError("no candidate answers to select from")
        m = len(columns[0])
        return [[col[row] for col in columns] for row in range(m)]

    @staticmethod
    def _layout_from_request(
        subgroup_sizes: tuple[int, ...], segment_sizes: tuple[int, ...]
    ) -> GroupLayout:
        alpha = len(subgroup_sizes)
        delta_prime = sum(size**alpha for size in segment_sizes)
        return GroupLayout(
            PartitionParameters(subgroup_sizes, segment_sizes, delta_prime)
        )

    @staticmethod
    def _location_sets(
        uploads: Sequence[LocationSetUpload], expected_users: int
    ) -> list[tuple[Point, ...]]:
        """Order uploads by user id — how LSP reconstructs subgroups (§4.2)."""
        if len(uploads) != expected_users:
            raise ProtocolError(
                f"expected {expected_users} location sets, got {len(uploads)}"
            )
        ordered = sorted(uploads, key=lambda u: u.user_id)
        if [u.user_id for u in ordered] != list(range(expected_users)):
            raise ProtocolError("location-set uploads must carry user ids 0..n-1")
        return [u.locations for u in ordered]

    # ----------------------------------------------------------- single user

    def answer_single_query(
        self, request: SingleQueryRequest, ledger: CostLedger
    ) -> EncryptedAnswer:
        """Section 3.2 query processing: d plaintext kNN queries + selection."""
        with ledger.clock(LSP):
            if len(request.indicator) != len(request.locations):
                raise ProtocolError("indicator length must equal the location-set size")
            codec = self._codec(request.public_key, request.k)
            columns = self._answer_columns(
                ((loc,) for loc in request.locations), request.k, None, codec
            )
            selected = matrix_select(
                self._rows(columns), request.indicator, ledger.counter(LSP)
            )
            return EncryptedAnswer(tuple(selected))

    def answer_single_query_opt(
        self, request: OptSingleQueryRequest, ledger: CostLedger
    ) -> EncryptedAnswer:
        """Single-user PPGNN-OPT: the two-phase selection of Section 6."""
        with ledger.clock(LSP):
            codec = self._codec(request.public_key, request.k)
            columns = self._answer_columns(
                ((loc,) for loc in request.locations), request.k, None, codec
            )
            return self._two_phase_select(
                columns, request.inner_indicator, request.outer_indicator, ledger
            )

    # ------------------------------------------------------------ group query

    def answer_group_query(
        self,
        request: GroupQueryRequest,
        uploads: Sequence[LocationSetUpload],
        ledger: CostLedger,
    ) -> EncryptedAnswer:
        """Algorithm 2 for PPGNN (and PPGNN-NAS when ``theta0`` is None)."""
        with ledger.clock(LSP):
            layout = self._layout_from_request(
                request.subgroup_sizes, request.segment_sizes
            )
            if len(request.indicator) != layout.delta_prime:
                raise ProtocolError(
                    f"indicator length {len(request.indicator)} != delta' "
                    f"{layout.delta_prime}"
                )
            sets = self._location_sets(uploads, layout.n)
            codec = self._codec(request.public_key, request.k)
            columns = self._answer_columns(
                layout.enumerate_candidates(sets), request.k, request.theta0, codec
            )
            selected = matrix_select(
                self._rows(columns), request.indicator, ledger.counter(LSP)
            )
            return EncryptedAnswer(tuple(selected))

    def answer_group_query_opt(
        self,
        request: OptGroupQueryRequest,
        uploads: Sequence[LocationSetUpload],
        ledger: CostLedger,
    ) -> EncryptedAnswer:
        """Algorithm 2 with the two-phase private selection of Section 6."""
        with ledger.clock(LSP):
            layout = self._layout_from_request(
                request.subgroup_sizes, request.segment_sizes
            )
            sets = self._location_sets(uploads, layout.n)
            codec = self._codec(request.public_key, request.k)
            columns = self._answer_columns(
                layout.enumerate_candidates(sets), request.k, request.theta0, codec
            )
            return self._two_phase_select(
                columns, request.inner_indicator, request.outer_indicator, ledger
            )

    # ----------------------------------------------------- two-phase select

    def _two_phase_select(
        self,
        columns: list[list[int]],
        inner_indicator: Sequence,
        outer_indicator: Sequence,
        ledger: CostLedger,
    ) -> EncryptedAnswer:
        """Split A into omega blocks, select within blocks, then across them.

        The candidate list is padded with all-zero columns so it divides
        evenly into ``omega`` blocks of ``len(inner_indicator)`` columns —
        zero columns are valid (never-selected) answers, exactly the 0
        padding Section 6 describes.
        """
        block_width = len(inner_indicator)
        omega = len(outer_indicator)
        if block_width * omega < len(columns):
            raise ProtocolError(
                f"{omega} blocks of {block_width} cannot cover "
                f"{len(columns)} candidates"
            )
        m = len(columns[0])
        padded = list(columns) + [
            [0] * m for _ in range(block_width * omega - len(columns))
        ]
        counter = ledger.counter(LSP)
        blocks = []
        for b in range(omega):
            block_columns = padded[b * block_width : (b + 1) * block_width]
            blocks.append(matrix_select(self._rows(block_columns), inner_indicator, counter))
        selected = nested_select(blocks, outer_indicator, counter)
        return EncryptedAnswer(tuple(selected))
