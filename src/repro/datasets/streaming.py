"""Streaming million-POI generators.

The list-returning generators in :mod:`repro.datasets.synthetic` top out
around the Sequoia scale; at 10^6+ POIs materializing every ``POI`` up
front doubles peak memory for no benefit, because the bulk loaders consume
entries once.  These generators yield POIs **chunk by chunk** — at most
``chunk_size`` live at a time besides whatever the consumer retains.

Determinism does not depend on chunking: randomness is always drawn in
fixed ``_RNG_BLOCK``-sized blocks — block ``b`` from
``np.random.default_rng([seed, b])`` — regardless of the requested
``chunk_size``, so POI ``i`` is a function of ``(kind, parameters, seed,
i)`` alone.  ``chunk_size`` only caps the emission batch; working storage
is ``O(max(chunk_size, _RNG_BLOCK))`` numpy scalars either way.
Distribution-level parameters (cluster centers, hotspot weights) are
drawn once from a dedicated ``default_rng([seed, 2**31])`` stream, never
from the per-block ones.

Three spatial shapes:

- :func:`stream_uniform` — i.i.d. uniform (index worst case),
- :func:`stream_clustered` — Gaussian city blobs over a uniform
  background, the shape of real POI data,
- :func:`stream_geo_skewed` — Zipf-weighted hotspot mixture: a handful of
  megacities absorb most of the mass, stressing indexes with extreme
  density contrast.

:func:`stream_pois` dispatches on a kind name (see
:data:`POI_STREAM_KINDS`) for CLI/benchmark plumbing.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.datasets.poi import POI
from repro.errors import ConfigurationError
from repro.geometry.point import Point
from repro.geometry.space import LocationSpace

POI_STREAM_KINDS = ("uniform", "clustered", "geo-skew")

DEFAULT_CHUNK_SIZE = 65_536

#: Fixed randomness granularity.  RNG streams are keyed by block index at
#: this size no matter what ``chunk_size`` the caller asks for, which is
#: what makes POI ``i`` invariant under re-chunking.
_RNG_BLOCK = 4_096


def _chunk_bounds(count: int, chunk_size: int) -> Iterator[tuple[int, int, int]]:
    """Yield ``(block_index, start, size)`` covering ``range(count)``.

    Blocks are cut at the fixed ``_RNG_BLOCK`` granularity; ``chunk_size``
    is validated by the callers but deliberately does not influence block
    boundaries (see the module docstring).
    """
    del chunk_size  # values must not depend on the caller's batching
    for c, start in enumerate(range(0, count, _RNG_BLOCK)):
        yield c, start, min(_RNG_BLOCK, count - start)


def _check(count: int, chunk_size: int) -> None:
    if count < 0:
        raise ConfigurationError("count must be non-negative")
    if chunk_size < 1:
        raise ConfigurationError("chunk_size must be >= 1")


def _emit(
    xs: np.ndarray, ys: np.ndarray, start: int, name_prefix: str
) -> Iterator[POI]:
    for off, (x, y) in enumerate(zip(xs, ys, strict=True)):
        i = start + off
        yield POI(i, Point(float(x), float(y)), f"{name_prefix}-{i}")


def stream_uniform(
    count: int,
    space: LocationSpace | None = None,
    seed: int = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    name_prefix: str = "poi",
) -> Iterator[POI]:
    """``count`` uniform POIs, yielded lazily in ``chunk_size`` batches."""
    _check(count, chunk_size)
    space = space or LocationSpace.unit_square()
    for c, start, size in _chunk_bounds(count, chunk_size):
        rng = np.random.default_rng([seed, c])
        xs, ys = space.sample_arrays(size, rng)
        yield from _emit(xs, ys, start, name_prefix)


def stream_clustered(
    count: int,
    space: LocationSpace | None = None,
    clusters: int = 24,
    background_fraction: float = 0.15,
    seed: int = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    name_prefix: str = "poi",
) -> Iterator[POI]:
    """Streaming analogue of :func:`repro.datasets.synthetic.clustered_pois`.

    Cluster geometry is drawn once from a dedicated stream; each chunk
    then assigns its points to clusters (or the uniform background with
    probability ``background_fraction``) independently, so the global
    mixture is identical no matter the chunk size.
    """
    _check(count, chunk_size)
    if clusters < 1:
        raise ConfigurationError("need at least one cluster")
    if not 0.0 <= background_fraction <= 1.0:
        raise ConfigurationError("background_fraction must be in [0, 1]")
    space = space or LocationSpace.unit_square()
    b = space.bounds
    geo = np.random.default_rng([seed, 2**31])
    centers_x = geo.uniform(b.xmin, b.xmax, size=clusters)
    centers_y = geo.uniform(b.ymin, b.ymax, size=clusters)
    weights = geo.pareto(1.5, size=clusters) + 1.0
    weights /= weights.sum()
    scales = geo.uniform(0.01, 0.05, size=clusters) * min(b.width, b.height)

    for c, start, size in _chunk_bounds(count, chunk_size):
        rng = np.random.default_rng([seed, c])
        is_bg = rng.uniform(size=size) < background_fraction
        assignment = rng.choice(clusters, size=size, p=weights)
        xs = rng.normal(centers_x[assignment], scales[assignment])
        ys = rng.normal(centers_y[assignment], scales[assignment])
        bg_xs, bg_ys = space.sample_arrays(size, rng)
        xs = np.where(is_bg, bg_xs, xs)
        ys = np.where(is_bg, bg_ys, ys)
        xs = np.clip(xs, b.xmin, b.xmax)
        ys = np.clip(ys, b.ymin, b.ymax)
        yield from _emit(xs, ys, start, name_prefix)


def stream_geo_skewed(
    count: int,
    space: LocationSpace | None = None,
    hotspots: int = 8,
    zipf_exponent: float = 1.2,
    background_fraction: float = 0.05,
    seed: int = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    name_prefix: str = "poi",
) -> Iterator[POI]:
    """Zipf-weighted hotspot mixture: extreme density skew.

    Hotspot ``r`` (0-indexed by rank) receives weight proportional to
    ``(r + 1) ** -zipf_exponent``, so the top hotspot holds a constant
    fraction of all POIs regardless of ``count`` — the adversarial shape
    for uniform grids.  Hotspot spread also
    shrinks with rank: the densest city is also the most compact.
    """
    _check(count, chunk_size)
    if hotspots < 1:
        raise ConfigurationError("need at least one hotspot")
    if zipf_exponent <= 0.0:
        raise ConfigurationError("zipf_exponent must be positive")
    if not 0.0 <= background_fraction <= 1.0:
        raise ConfigurationError("background_fraction must be in [0, 1]")
    space = space or LocationSpace.unit_square()
    b = space.bounds
    geo = np.random.default_rng([seed, 2**31])
    centers_x = geo.uniform(b.xmin, b.xmax, size=hotspots)
    centers_y = geo.uniform(b.ymin, b.ymax, size=hotspots)
    ranks = np.arange(1, hotspots + 1, dtype=np.float64)
    weights = ranks**-zipf_exponent
    weights /= weights.sum()
    scales = (
        geo.uniform(0.008, 0.03, size=hotspots)
        * min(b.width, b.height)
        * ranks**-0.25
    )

    for c, start, size in _chunk_bounds(count, chunk_size):
        rng = np.random.default_rng([seed, c])
        is_bg = rng.uniform(size=size) < background_fraction
        assignment = rng.choice(hotspots, size=size, p=weights)
        xs = rng.normal(centers_x[assignment], scales[assignment])
        ys = rng.normal(centers_y[assignment], scales[assignment])
        bg_xs, bg_ys = space.sample_arrays(size, rng)
        xs = np.where(is_bg, bg_xs, xs)
        ys = np.where(is_bg, bg_ys, ys)
        xs = np.clip(xs, b.xmin, b.xmax)
        ys = np.clip(ys, b.ymin, b.ymax)
        yield from _emit(xs, ys, start, name_prefix)


def stream_pois(
    kind: str,
    count: int,
    space: LocationSpace | None = None,
    seed: int = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Iterator[POI]:
    """Dispatch a streaming generator by ``kind`` (CLI/benchmark entry)."""
    if kind == "uniform":
        return stream_uniform(count, space=space, seed=seed, chunk_size=chunk_size)
    if kind == "clustered":
        return stream_clustered(count, space=space, seed=seed, chunk_size=chunk_size)
    if kind == "geo-skew":
        return stream_geo_skewed(count, space=space, seed=seed, chunk_size=chunk_size)
    raise ConfigurationError(
        f"unknown POI stream kind {kind!r}; known: {list(POI_STREAM_KINDS)}"
    )
