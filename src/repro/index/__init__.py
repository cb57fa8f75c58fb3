"""Spatial index substrate.

The paper's LSP answers plaintext kGNN queries with the MBM algorithm of
Papadias et al. [24], which runs best-first search over an R-tree.  The
original evaluation used a C++ R-tree; this package implements the same
structures in Python:

- :class:`~repro.index.rtree.RTree` — quadratic-split insertion, STR bulk
  loading, deletion, range queries, and the (mbr, entries) traversal the
  best-first kNN/kGNN searches consume,
- :class:`~repro.index.grid.GridIndex` — a uniform grid (used by the APNN
  baseline's precomputation),
- :class:`~repro.index.bruteforce.BruteForceIndex` — the O(D) oracle used to
  property-test the tree-based indexes.

Every hierarchical index also exposes its traversal as one version-stamped
:class:`~repro.index.base.FlatView` of numpy arrays, the form the batched
MBM walk reads.
"""

from repro.index.base import SpatialIndex
from repro.index.bruteforce import BruteForceIndex
from repro.index.grid import GridIndex
from repro.index.rtree import RTree

__all__ = ["SpatialIndex", "BruteForceIndex", "GridIndex", "RTree"]
