"""APNN — approximate private kNN with grid precomputation (Yi et al. [36]).

The n = 1 baseline of Section 8.2.  The LSP partitions the space into a
``g x g`` grid and precomputes the kNN answer for every cell *center*.  At
query time the user chooses a square cloak region of ``b x b`` cells
containing her own cell and runs a private-retrieval round so the LSP
learns neither her cell nor the answer she obtains: here modelled with the
same encrypted-indicator selection primitive PPGNN uses (the cost-relevant
structure — b^2 user-side encryptions, a b^2-wide private selection on the
LSP, one encrypted answer back — matches the two-stage protocol of [36]).

Key behavioural properties reproduced from the paper's discussion:

- the LSP performs *no kNN work at query time* (lowest LSP cost in
  Figure 5f) because answers are precomputed per cell,
- the answer is approximate — it is the kNN of the cell center, not of the
  user's exact location,
- a database update invalidates every precomputed cell (the "expensive
  update cost" the paper criticizes); :meth:`APNNServer.invalidate`
  models it and the dynamic-database example demonstrates the contrast.

Precomputation is lazy by default: a cell's answer is materialized on
first touch and cached, which leaves all *query-time* costs identical to
the eager variant while keeping test setup fast.  ``precompute_all=True``
gives the faithful offline behaviour.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.common import decrypt_answer, derive_rngs, group_keypair
from repro.core.config import PPGNNConfig
from repro.baselines.result import BaselineResult
from repro.crypto.homomorphic import encrypt_indicator, matrix_select
from repro.datasets.poi import POI
from repro.encoding.answers import AnswerCodec
from repro.errors import ConfigurationError, ProtocolError
from repro.geometry.point import Point
from repro.geometry.space import LocationSpace
from repro.gnn.engine import GNNQueryEngine
from repro.index.grid import GridIndex
from repro.protocol.messages import (
    EncryptedAnswer,
    GenericMessage,
    INT_BYTES,
)
from repro.protocol.metrics import COORDINATOR, LSP, CostLedger


class APNNServer:
    """The APNN service provider: grid, precomputed answers, private retrieval."""

    def __init__(
        self,
        pois: Sequence[POI],
        cells_per_side: int = 64,
        space: LocationSpace | None = None,
        precompute_all: bool = False,
    ) -> None:
        if cells_per_side < 2:
            raise ConfigurationError("APNN needs at least a 2 x 2 grid")
        self.space = space or LocationSpace.unit_square()
        self.engine = GNNQueryEngine(pois)
        self.grid = GridIndex(self.space, cells_per_side)
        self._cache: dict[tuple[tuple[int, int], int], list[POI]] = {}
        self._precompute_all = precompute_all

    def _cell_answer(self, cell: tuple[int, int], k: int) -> list[POI]:
        """The precomputed kNN answer for one cell center."""
        key = (cell, k)
        answer = self._cache.get(key)
        if answer is None:
            center = self.grid.cell_center(*cell)
            answer = self.engine.query(k, [center])
            self._cache[key] = answer
        return answer

    def precompute(self, k: int) -> int:
        """Materialize every cell's answer for one k; returns the cell count.

        This is the offline step of [36]; its cost explains why APNN cannot
        track a dynamic database.  Every cell not yet cached is answered in
        one batched :meth:`~repro.gnn.engine.GNNQueryEngine.query_many`.
        """
        cells = [cell for cell in self.grid.all_cells() if (cell, k) not in self._cache]
        centers = [[self.grid.cell_center(*cell)] for cell in cells]
        for cell, answer in zip(cells, self.engine.query_many(k, centers), strict=True):
            self._cache[cell, k] = answer
        return self.grid.cells_per_side**2

    def invalidate(self) -> int:
        """Drop every precomputed answer (a database update happened).

        Returns how many cached cell answers were lost — the rework a
        single POI insertion forces onto APNN.
        """
        dropped = len(self._cache)
        self._cache.clear()
        return dropped

    # ------------------------------------------------------------- serving

    def cloak_cells(self, location: Point, b: int) -> list[tuple[int, int]]:
        """The b x b block of cells containing the user's cell.

        The block is anchored so it stays inside the grid; the user's own
        cell can sit anywhere inside it (the user picks the block, §8.2).
        """
        g = self.grid.cells_per_side
        if not 1 <= b <= g:
            raise ConfigurationError(f"cloak side b must be in [1, {g}]")
        col, row = self.grid.cell_of(location)
        col0 = min(max(col - b // 2, 0), g - b)
        row0 = min(max(row - b // 2, 0), g - b)
        return [(c, r) for r in range(row0, row0 + b) for c in range(col0, col0 + b)]

    def answer_query(
        self,
        k: int,
        cells: list[tuple[int, int]],
        indicator,
        public_key,
        ledger: CostLedger,
    ) -> EncryptedAnswer:
        """Select the requested cell's precomputed answer privately."""
        with ledger.clock(LSP):
            if len(indicator) != len(cells):
                raise ProtocolError("indicator length must match the cloak size")
            if self._precompute_all:
                self.precompute(k)
            codec = AnswerCodec(public_key.key_bits, k, self.space)
            columns = [codec.encode(self._cell_answer(cell, k)) for cell in cells]
            m = len(columns[0])
            rows = [[col[row] for col in columns] for row in range(m)]
            selected = matrix_select(rows, indicator, ledger.counter(LSP))
            return EncryptedAnswer(tuple(selected))


def run_apnn(
    server: APNNServer,
    location: Point,
    config: PPGNNConfig,
    cloak_side: int | None = None,
    seed: int = 0,
) -> BaselineResult:
    """One APNN round for a single user.

    ``cloak_side`` defaults to ``round(sqrt(d))`` so the privacy level b^2
    matches PPGNN's d (the paper uses b = 5 against d = 25).
    """
    config = config.for_single_user()
    b = cloak_side if cloak_side is not None else max(2, round(config.d**0.5))
    ledger = CostLedger()
    rng, _ = derive_rngs(seed)
    keypair = group_keypair(config)
    codec = AnswerCodec(config.keysize, config.k, server.space)

    with ledger.clock(COORDINATOR):
        cells = server.cloak_cells(location, b)
        own_cell = server.grid.cell_of(location)
        hot = cells.index(own_cell)
        indicator = encrypt_indicator(
            keypair.secret_key,
            len(cells),
            hot,
            rng=rng,
            counter=ledger.counter(COORDINATOR),
        )
    # Request: k + cloak anchor + the b^2 encrypted indicator entries.
    request_bytes = (
        INT_BYTES * 3
        + keypair.public_key.key_bits // 8
        + sum(c.byte_size for c in indicator)
    )
    ledger.record(COORDINATOR, LSP, GenericMessage("apnn-request", request_bytes))

    encrypted = server.answer_query(
        config.k, cells, indicator, keypair.public_key, ledger
    )
    ledger.record(LSP, COORDINATOR, encrypted)

    decoded = decrypt_answer(keypair, codec, encrypted, ledger)
    answers = tuple(server.engine.poi_by_id(a.poi_id) for a in decoded)
    return BaselineResult(
        protocol="apnn",
        answers=answers,
        report=ledger.report(),
        extras={"cloak_cells": len(cells), "cell": own_cell},
    )
