"""Partition parameters and candidate-query layout (Section 4.1).

PPGNN keeps every location set at size d yet presents LSP with at least
``delta`` candidate queries by partitioning the user group into ``alpha``
subgroups and every location set into ``beta`` segments.  This package
contains:

- :mod:`~repro.partition.solver` — an exact solver for the nonlinear
  integer program of Eqns (7)-(10) (the paper precomputes it offline with
  Bonmin; we solve exactly by dynamic programming and cache),
- :mod:`~repro.partition.layout` — the
  :class:`~repro.partition.layout.GroupLayout` that places real locations,
  computes the query index of Eqn (12), and enumerates the candidate query
  list in the canonical lexicographic order shared by users and LSP.
"""

from repro.partition.layout import GroupLayout, PlacementPlan
from repro.partition.solver import PartitionParameters, solve_partition

__all__ = [
    "PartitionParameters",
    "solve_partition",
    "GroupLayout",
    "PlacementPlan",
]
