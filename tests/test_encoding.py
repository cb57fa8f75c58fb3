"""Tests for bit packing and the answer codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.poi import POI
from repro.datasets.synthetic import uniform_pois
from repro.encoding.answers import AnswerCodec
from repro.encoding.packing import (
    join_bitstream,
    pack_fields,
    split_bitstream,
    unpack_fields,
)
from repro.errors import ConfigurationError, EncodingError
from repro.geometry.point import Point
from repro.geometry.space import LocationSpace


class TestPacking:
    def test_pack_unpack_roundtrip(self):
        widths = [4, 8, 16, 1]
        values = [15, 200, 65535, 1]
        assert unpack_fields(pack_fields(values, widths), widths) == values

    def test_value_too_wide_rejected(self):
        with pytest.raises(EncodingError):
            pack_fields([16], [4])

    def test_length_mismatch(self):
        with pytest.raises(EncodingError):
            pack_fields([1, 2], [4])

    def test_stray_bits_detected(self):
        with pytest.raises(EncodingError):
            unpack_fields(1 << 10, [4, 4])

    @settings(max_examples=50)
    @given(st.lists(st.tuples(st.integers(min_value=1, max_value=40), st.integers(min_value=0)), min_size=1, max_size=10))
    def test_roundtrip_property(self, spec):
        widths = [w for w, _ in spec]
        values = [v % (1 << w) for w, v in spec]
        assert unpack_fields(pack_fields(values, widths), widths) == values

    @settings(max_examples=50)
    @given(st.integers(min_value=0, max_value=2**200), st.integers(min_value=8, max_value=64))
    def test_bitstream_roundtrip(self, stream, chunk_bits):
        count = max(1, -(-stream.bit_length() // chunk_bits))
        chunks = split_bitstream(stream, chunk_bits, count)
        assert join_bitstream(chunks, chunk_bits) == stream

    def test_bitstream_overflow_detected(self):
        with pytest.raises(EncodingError):
            split_bitstream(1 << 64, 32, 2)

    def test_chunk_value_validation(self):
        with pytest.raises(EncodingError):
            join_bitstream([1 << 8], 8)


@pytest.fixture(scope="module")
def codec():
    return AnswerCodec(keysize=256, k=8, space=LocationSpace.unit_square())


@pytest.fixture(scope="module")
def pois():
    return uniform_pois(100, seed=13)


class TestAnswerCodec:
    def test_shape_constants(self, codec):
        assert codec.poi_bits == 64  # the paper's 8 bytes per POI
        assert codec.chunk_bits == 255
        # header 16 + 8 * 64 = 528 bits over 255-bit chunks -> 3 integers.
        assert codec.m == 3

    def test_paper_pois_per_integer(self):
        """With 1024-bit keys, 15 POIs fit one integer (Section 8.2)."""
        codec = AnswerCodec(keysize=1024, k=8, space=LocationSpace.unit_square())
        assert codec.pois_per_integer == 15

    def test_encode_produces_m_integers_below_modulus(self, codec, pois):
        out = codec.encode(pois[:8])
        assert len(out) == codec.m
        assert all(0 <= x < (1 << codec.chunk_bits) for x in out)

    def test_roundtrip_ids_exact(self, codec, pois):
        for count in (0, 1, 5, 8):
            decoded = codec.decode(codec.encode(pois[:count]))
            assert [d.poi_id for d in decoded] == [p.poi_id for p in pois[:count]]

    def test_roundtrip_locations_quantized(self, codec, pois):
        decoded = codec.decode(codec.encode(pois[:8]))
        for d, p in zip(decoded, pois[:8], strict=True):
            assert d.location.distance_to(p.location) < 1e-5

    def test_shorter_answers_padded(self, codec, pois):
        """Sanitized answers (t < k) must encode to the same m integers."""
        full = codec.encode(pois[:8])
        short = codec.encode(pois[:2])
        assert len(full) == len(short) == codec.m

    def test_too_many_pois_rejected(self, codec, pois):
        with pytest.raises(EncodingError):
            codec.encode(pois[:9])

    def test_oversized_poi_id_rejected(self, codec):
        giant = POI((1 << 24), Point(0.5, 0.5))
        with pytest.raises(EncodingError):
            codec.encode([giant])

    def test_decode_validates_length(self, codec):
        with pytest.raises(EncodingError):
            codec.decode([0])

    def test_decode_validates_count_header(self, codec):
        bogus = [9999] + [0] * (codec.m - 1)  # count=9999 > k
        with pytest.raises(EncodingError):
            codec.decode(bogus)

    def test_zero_vector_decodes_to_empty(self, codec):
        assert codec.decode([0] * codec.m) == []

    def test_keysize_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            AnswerCodec(keysize=64, k=1, space=LocationSpace.unit_square())

    def test_count_field_width_validation(self):
        with pytest.raises(ConfigurationError):
            AnswerCodec(
                keysize=1024, k=70000, space=LocationSpace.unit_square(), count_bits=16
            )

    def test_quantization_boundaries(self, codec):
        for p in (Point(0, 0), Point(1, 1), Point(0, 1), Point(1, 0)):
            xq, yq = codec.quantize_point(p)
            back = codec.dequantize_point(xq, yq)
            assert back.distance_to(p) < 1e-5

    @settings(max_examples=30)
    @given(st.integers(min_value=0, max_value=8), st.integers(min_value=0, max_value=2**32))
    def test_roundtrip_property(self, count, seed):
        space = LocationSpace.unit_square()
        codec = AnswerCodec(keysize=256, k=8, space=space)
        pois = uniform_pois(count, space, seed=seed % 1000)
        decoded = codec.decode(codec.encode(pois))
        assert [d.poi_id for d in decoded] == [p.poi_id for p in pois]
