"""The R-tree's parallel bulk loader.

:mod:`repro.spatial.str_build` is a sharded parallel Sort-Tile-Recursive
bulk loader for the R-tree: worker processes tile independent vertical
slices, and the stitched tree is byte-identical to a serial build for any
worker count.
"""

from repro.spatial.str_build import parallel_str_bulk_load, tree_digest

__all__ = [
    "parallel_str_bulk_load",
    "tree_digest",
]
