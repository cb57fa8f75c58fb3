"""Fixed-width bit packing of unsigned integers into big integers."""

from __future__ import annotations

from typing import Sequence

from repro.errors import EncodingError


def pack_fields(values: Sequence[int], widths: Sequence[int]) -> int:
    """Pack unsigned ``values`` into one integer, first field least significant.

    ``values[i]`` must satisfy ``0 <= values[i] < 2 ** widths[i]``.
    """
    if len(values) != len(widths):
        raise EncodingError(
            f"{len(values)} values for {len(widths)} field widths"
        )
    packed = 0
    offset = 0
    for value, width in zip(values, widths, strict=True):
        if width < 1:
            raise EncodingError("field widths must be positive")
        if not 0 <= value < (1 << width):
            raise EncodingError(f"value {value} does not fit in {width} bits")
        packed |= value << offset
        offset += width
    return packed


def unpack_fields(packed: int, widths: Sequence[int]) -> list[int]:
    """Inverse of :func:`pack_fields` for the same ``widths``."""
    if packed < 0:
        raise EncodingError("packed value must be non-negative")
    values = []
    offset = 0
    for width in widths:
        if width < 1:
            raise EncodingError("field widths must be positive")
        values.append((packed >> offset) & ((1 << width) - 1))
        offset += width
    if packed >> offset:
        raise EncodingError("packed value has stray bits beyond the declared fields")
    return values


def split_bitstream(stream: int, chunk_bits: int, chunk_count: int) -> list[int]:
    """Split a big integer into ``chunk_count`` integers of ``chunk_bits`` each.

    Chunk 0 holds the least-significant bits.  Raises when the stream does
    not fit — the caller sized the chunks wrongly.
    """
    if chunk_bits < 1 or chunk_count < 1:
        raise EncodingError("chunk size and count must be positive")
    if stream < 0:
        raise EncodingError("stream must be non-negative")
    if stream >> (chunk_bits * chunk_count):
        raise EncodingError(
            f"stream of {stream.bit_length()} bits exceeds "
            f"{chunk_count} x {chunk_bits} bit chunks"
        )
    mask = (1 << chunk_bits) - 1
    return [(stream >> (i * chunk_bits)) & mask for i in range(chunk_count)]


def join_bitstream(chunks: Sequence[int], chunk_bits: int) -> int:
    """Inverse of :func:`split_bitstream`."""
    if chunk_bits < 1:
        raise EncodingError("chunk size must be positive")
    stream = 0
    for i, chunk in enumerate(chunks):
        if not 0 <= chunk < (1 << chunk_bits):
            raise EncodingError(f"chunk {i} does not fit in {chunk_bits} bits")
        stream |= chunk << (i * chunk_bits)
    return stream
