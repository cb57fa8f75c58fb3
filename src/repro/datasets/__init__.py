"""POI datasets.

The paper evaluates on the Sequoia dataset: 62 556 California POIs with
coordinates and names, normalized into a square space.  The original files
(chorochronos.datastories.org) are not available offline, so
:func:`~repro.datasets.sequoia.load_sequoia` produces a deterministic
synthetic surrogate of the same cardinality and a realistic skewed spatial
distribution (clustered cities over a uniform background) — see DESIGN.md's
substitution table.  Real Sequoia files, when present, can be loaded with
:func:`~repro.datasets.sequoia.load_sequoia_file`.
"""

from repro.datasets.poi import POI
from repro.datasets.sequoia import SEQUOIA_SIZE, load_sequoia, load_sequoia_file
from repro.datasets.streaming import stream_clustered
from repro.datasets.synthetic import clustered_pois, uniform_pois

__all__ = [
    "POI",
    "SEQUOIA_SIZE",
    "load_sequoia",
    "load_sequoia_file",
    "uniform_pois",
    "clustered_pois",
    "stream_clustered",
]
