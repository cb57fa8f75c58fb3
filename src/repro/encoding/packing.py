"""Splitting one big integer into fixed-width chunks and joining them back."""

from __future__ import annotations

from typing import Sequence

from repro.errors import EncodingError


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
