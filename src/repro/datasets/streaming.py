"""A streaming clustered POI generator for index-scale runs.

The list-returning generators in :mod:`repro.datasets.synthetic` top out
around the Sequoia scale; at 10^5+ POIs materializing every ``POI`` up
front doubles peak memory for no benefit, because the bulk loader consumes
entries once.  :func:`stream_clustered` yields POIs block by block.

Randomness is drawn in fixed ``_RNG_BLOCK``-sized blocks — block ``b``
from ``np.random.default_rng([seed, b])`` — so POI ``i`` is a function of
``(count, space, seed, i)`` alone, and working storage is
``O(_RNG_BLOCK)`` numpy scalars.  Cluster centers, weights and spreads are
drawn once from a dedicated ``default_rng([seed, 2**31])`` stream, never
from the per-block ones.  The shape is Gaussian city blobs over a uniform
background, the shape of real POI data.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.datasets.poi import POI
from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.geometry.space import LocationSpace

#: Fixed randomness granularity: one RNG stream per block of this many POIs.
_RNG_BLOCK = 4_096

#: City blobs in the mixture.
_CLUSTERS = 24

#: Share of POIs drawn from the uniform background instead of a blob.
_BACKGROUND_FRACTION = 0.15

#: POI ``i`` is named ``f"{_NAME_PREFIX}-{i}"``.
_NAME_PREFIX = "poi"


def stream_clustered(
    count: int,
    space: LocationSpace | None = None,
    seed: int = 0,
) -> Iterator[POI]:
    """Streaming analogue of :func:`repro.datasets.synthetic.clustered_pois`.

    Cluster geometry is drawn once from a dedicated stream; each block
    then assigns its points to clusters (or the uniform background with
    probability ``_BACKGROUND_FRACTION``) independently.
    """
    if count < 0:
        raise ConfigurationError("count must be non-negative")
    space = space or LocationSpace.unit_square()
    b = space.bounds
    geo = np.random.default_rng([seed, 2**31])
    centers_x = geo.uniform(b.xmin, b.xmax, size=_CLUSTERS)
    centers_y = geo.uniform(b.ymin, b.ymax, size=_CLUSTERS)
    weights = geo.pareto(1.5, size=_CLUSTERS) + 1.0
    weights /= weights.sum()
    scales = geo.uniform(0.01, 0.05, size=_CLUSTERS) * min(b.width, b.height)

    for c, start in enumerate(range(0, count, _RNG_BLOCK)):
        size = min(_RNG_BLOCK, count - start)
        rng = np.random.default_rng([seed, c])
        is_bg = rng.uniform(size=size) < _BACKGROUND_FRACTION
        assignment = rng.choice(_CLUSTERS, size=size, p=weights)
        xs = rng.normal(centers_x[assignment], scales[assignment])
        ys = rng.normal(centers_y[assignment], scales[assignment])
        bg_xs, bg_ys = space.sample_arrays(size, rng)
        xs = np.clip(np.where(is_bg, bg_xs, xs), b.xmin, b.xmax)
        ys = np.clip(np.where(is_bg, bg_ys, ys), b.ymin, b.ymax)
        for off, (x, y) in enumerate(zip(xs, ys, strict=True)):
            i = start + off
            yield POI(i, Point(float(x), float(y)), f"{_NAME_PREFIX}-{i}")
