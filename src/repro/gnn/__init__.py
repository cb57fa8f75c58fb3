"""Group k-nearest-neighbor (kGNN) query engine.

Implements Definition 2.1 of the paper: given POI database D, query
locations C, distance ``dis`` and a monotonically increasing aggregate F,
retrieve the k POIs minimizing ``F(dis(p, l_1), ..., dis(p, l_n))``.

- :mod:`~repro.gnn.aggregate` — the sum / max / min aggregates (Eqn 1),
- :mod:`~repro.gnn.mbm` — the Minimum Bounding Method of Papadias et al.
  [24], the plaintext kGNN algorithm the paper's LSP runs, batched over a
  request's candidate queries,
- :mod:`~repro.gnn.knn` — classic best-first kNN (the n = 1 special case),
- :mod:`~repro.gnn.bruteforce` — the O(D log D) oracle for testing,
- :mod:`~repro.gnn.engine` — the black-box ``GNNQueryEngine`` the protocols
  call; swapping this engine adapts the protocol to any group query
  (Section 1, novelty 4).
"""

from repro.gnn.aggregate import Aggregate, MAX, MIN, SUM, get_aggregate
from repro.gnn.bruteforce import brute_force_kgnn
from repro.gnn.engine import GNNQueryEngine
from repro.gnn.knn import best_first_knn, incremental_nearest
from repro.gnn.mbm import mbm_kgnn, mbm_kgnn_many
from repro.gnn.mqm import mqm_kgnn
from repro.gnn.spm import spm_kgnn

__all__ = [
    "Aggregate",
    "SUM",
    "MAX",
    "MIN",
    "get_aggregate",
    "best_first_knn",
    "incremental_nearest",
    "mbm_kgnn",
    "mbm_kgnn_many",
    "spm_kgnn",
    "mqm_kgnn",
    "brute_force_kgnn",
    "GNNQueryEngine",
]
