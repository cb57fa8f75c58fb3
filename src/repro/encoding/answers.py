"""Serialization of ranked POI answers into Paillier plaintext integers.

Layout (least-significant first):

- a ``count_bits`` header carrying the number of real POIs (the answer
  sanitation may return t < k POIs, and padding must stay distinguishable),
- ``k`` fixed-width POI slots of ``id_bits + 2 * coord_bits`` each;
  unused slots are zero.

The resulting bit stream is split into ``m`` integers of ``keysize - 1``
bits, each strictly below the modulus N, matching the paper's "every
element is less than N" requirement and its measurement that 15 POIs fit
in one 1024-bit integer (the default 64 bits per POI gives exactly that,
and reproduces the staged cost growth of Figure 5d).

Coordinates are quantized onto a ``2 ** coord_bits`` grid over the location
space; with the default 20 bits the error is below 1e-6 of the space side,
and decoding also returns the exact POI id, so round trips are lossless at
the POI-identity level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.datasets.poi import POI
from repro.encoding.packing import join_bitstream, split_bitstream
from repro.errors import ConfigurationError, EncodingError, positive_int
from repro.geometry.point import Point
from repro.geometry.space import LocationSpace


@dataclass(frozen=True, slots=True)
class DecodedAnswer:
    """One decoded POI: its id and its (dequantized) location."""

    poi_id: int
    location: Point


class AnswerCodec:
    """Fixed-shape encoder/decoder for top-k POI answers.

    Parameters
    ----------
    keysize:
        Paillier modulus size in bits; every emitted integer has at most
        ``keysize - 1`` bits and is therefore below N.
    k:
        Maximum number of POIs an answer may carry (the query's k).
    space:
        Location space used for coordinate quantization.
    id_bits / coord_bits / count_bits:
        Field widths.  Defaults give 64 bits per POI — the paper's 8 bytes.
    """

    def __init__(
        self,
        keysize: int,
        k: int,
        space: LocationSpace,
        id_bits: int = 24,
        coord_bits: int = 20,
        count_bits: int = 16,
    ) -> None:
        k = positive_int(k, "k")
        if min(id_bits, coord_bits, count_bits) < 1:
            raise ConfigurationError("field widths must be positive")
        if k >= (1 << count_bits):
            raise ConfigurationError("count field too narrow for k")
        self.keysize = keysize
        self.k = k
        self.space = space
        self.id_bits = id_bits
        self.coord_bits = coord_bits
        self.count_bits = count_bits
        self.chunk_bits = keysize - 1
        if self.chunk_bits < self.poi_bits + count_bits:
            raise ConfigurationError(
                f"keysize {keysize} too small to hold even one "
                f"{self.poi_bits}-bit POI plus the header"
            )

    @property
    def poi_bits(self) -> int:
        """Bits per POI slot (id + two quantized coordinates)."""
        return self.id_bits + 2 * self.coord_bits

    @property
    def total_bits(self) -> int:
        """Bits of the full (header + k slots) stream."""
        return self.count_bits + self.k * self.poi_bits

    @property
    def m(self) -> int:
        """Integers per encoded answer — the paper's m (Section 3.2)."""
        return math.ceil(self.total_bits / self.chunk_bits)

    @property
    def pois_per_integer(self) -> int:
        """How many POI slots one integer can carry (15 for the defaults at 1024 bits)."""
        return self.chunk_bits // self.poi_bits

    # ------------------------------------------------------------- quantize

    def _quantize(self, value: float, low: float, span: float) -> int:
        grid = (1 << self.coord_bits) - 1
        q = round((value - low) / span * grid)
        return min(max(q, 0), grid)

    def _dequantize(self, q: int, low: float, span: float) -> float:
        grid = (1 << self.coord_bits) - 1
        return low + q / grid * span

    def quantize_point(self, p: Point) -> tuple[int, int]:
        """Map a location onto the coordinate grid."""
        b = self.space.bounds
        return (
            self._quantize(p.x, b.xmin, b.width),
            self._quantize(p.y, b.ymin, b.height),
        )

    def dequantize_point(self, xq: int, yq: int) -> Point:
        """Map grid coordinates back to a location."""
        b = self.space.bounds
        return Point(
            self._dequantize(xq, b.xmin, b.width),
            self._dequantize(yq, b.ymin, b.height),
        )

    # --------------------------------------------------------------- encode

    def encode(self, pois: Sequence[POI]) -> list[int]:
        """Encode up to ``k`` ranked POIs into exactly ``m`` integers below N."""
        if len(pois) > self.k:
            raise EncodingError(f"answer has {len(pois)} POIs but k={self.k}")
        stream = len(pois)  # the count header sits in the low bits
        offset = self.count_bits
        for poi in pois:
            if poi.poi_id >= (1 << self.id_bits):
                raise EncodingError(
                    f"poi_id {poi.poi_id} does not fit in {self.id_bits} bits"
                )
            xq, yq = self.quantize_point(poi.location)
            slot = poi.poi_id | (xq << self.id_bits) | (yq << (self.id_bits + self.coord_bits))
            stream |= slot << offset
            offset += self.poi_bits
        return split_bitstream(stream, self.chunk_bits, self.m)

    # --------------------------------------------------------------- decode

    def decode(self, integers: Sequence[int]) -> list[DecodedAnswer]:
        """Inverse of :meth:`encode`; validates structure and padding."""
        if len(integers) != self.m:
            raise EncodingError(f"expected {self.m} integers, got {len(integers)}")
        stream = join_bitstream(integers, self.chunk_bits)
        count = stream & ((1 << self.count_bits) - 1)
        if count > self.k:
            raise EncodingError(f"count header {count} exceeds k={self.k}")
        answers = []
        offset = self.count_bits
        slot_mask = (1 << self.poi_bits) - 1
        for _ in range(count):
            slot = (stream >> offset) & slot_mask
            poi_id = slot & ((1 << self.id_bits) - 1)
            xq = (slot >> self.id_bits) & ((1 << self.coord_bits) - 1)
            yq = (slot >> (self.id_bits + self.coord_bits)) & ((1 << self.coord_bits) - 1)
            answers.append(DecodedAnswer(poi_id, self.dequantize_point(xq, yq)))
            offset += self.poi_bits
        if stream >> offset and any(
            (stream >> (self.count_bits + i * self.poi_bits)) & slot_mask
            for i in range(count, self.k)
        ):
            raise EncodingError("nonzero padding beyond the declared POI count")
        return answers
