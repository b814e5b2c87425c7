"""Tests for JPEG tables and bit-level I/O."""

import numpy as np
import pytest

from repro.exceptions import BitstreamError
from repro.mjpeg.bitstream import BitReader, BitWriter
from repro.mjpeg.tables import (
    AC_TABLE,
    DC_TABLE,
    HuffmanTable,
    INVERSE_ZIGZAG,
    ZIGZAG,
    decode_magnitude,
    encode_magnitude,
    magnitude_category,
    scaled_quant_table,
    BASE_LUMA_QUANT,
    DC_BITS,
    DC_HUFFVAL,
)


class TestZigzag:
    def test_is_permutation(self):
        assert sorted(ZIGZAG) == list(range(64))

    def test_inverse(self):
        for natural in range(64):
            assert ZIGZAG[INVERSE_ZIGZAG[natural]] == natural

    def test_known_prefix(self):
        # The classic start of the zig-zag walk.
        assert ZIGZAG[:6] == (0, 1, 8, 16, 9, 2)


class TestQuantScaling:
    def test_quality_50_is_base(self):
        table = scaled_quant_table(BASE_LUMA_QUANT, 50)
        assert np.array_equal(table, BASE_LUMA_QUANT)

    def test_higher_quality_smaller_divisors(self):
        q75 = scaled_quant_table(BASE_LUMA_QUANT, 75)
        q25 = scaled_quant_table(BASE_LUMA_QUANT, 25)
        assert (q75 <= q25).all()
        assert q75.min() >= 1

    def test_quality_100_all_near_one(self):
        q100 = scaled_quant_table(BASE_LUMA_QUANT, 100)
        assert q100.max() <= 2

    def test_invalid_quality(self):
        with pytest.raises(BitstreamError):
            scaled_quant_table(BASE_LUMA_QUANT, 0)
        with pytest.raises(BitstreamError):
            scaled_quant_table(BASE_LUMA_QUANT, 101)


class TestHuffman:
    def test_dc_table_has_12_categories(self):
        assert len(DC_TABLE.encode_map) == 12

    def test_ac_table_has_162_symbols(self):
        assert len(AC_TABLE.encode_map) == 162

    def test_codes_are_prefix_free(self):
        for table in (DC_TABLE, AC_TABLE):
            codes = [
                (code, length)
                for (length, code) in table.decode_map.keys()
            ]
            as_strings = [format(c, f"0{l}b") for (l, c) in
                          table.decode_map.keys()]
            for a in as_strings:
                for b in as_strings:
                    if a is not b:
                        assert not b.startswith(a) or a == b

    def test_roundtrip_via_decode_map(self):
        for symbol, (code, length) in AC_TABLE.encode_map.items():
            assert AC_TABLE.decode_map[(length, code)] == symbol

    @pytest.mark.parametrize("table", [DC_TABLE, AC_TABLE])
    def test_lookup_gives_the_code_each_window_starts_with(self, table):
        lookup = table.lookup
        assert len(lookup) == 1 << table.max_length
        for window, entry in enumerate(lookup):
            if entry is not None:
                symbol, length = entry
                code = window >> (table.max_length - length)
                assert table.decode_map[(length, code)] == symbol
        # the codes are prefix-free, so this count leaves no window that
        # starts with a code unmatched
        matched = sum(entry is not None for entry in lookup)
        assert matched == sum(
            1 << (table.max_length - length)
            for length, _code in table.decode_map
        )

    def test_lookup_built_on_first_use(self):
        table = HuffmanTable(DC_BITS, DC_HUFFVAL)
        assert "lookup" not in vars(table)
        assert table.lookup is table.lookup
        assert "lookup" in vars(table)

    def test_unknown_symbol_rejected(self):
        with pytest.raises(BitstreamError):
            DC_TABLE.encode(99)

    def test_bits_huffval_mismatch_rejected(self):
        with pytest.raises(BitstreamError):
            HuffmanTable((1,) + (0,) * 15, (1, 2))


class TestMagnitude:
    @pytest.mark.parametrize("value,category", [
        (0, 0), (1, 1), (-1, 1), (2, 2), (3, 2), (-3, 2),
        (255, 8), (-255, 8), (1023, 10), (2047, 11),
    ])
    def test_category(self, value, category):
        assert magnitude_category(value) == category

    @pytest.mark.parametrize("value", [0, 1, -1, 5, -5, 127, -127, 1000])
    def test_roundtrip(self, value):
        category = magnitude_category(value)
        bits = encode_magnitude(value, category)
        assert decode_magnitude(bits, category) == value


class TestBitIO:
    def test_roundtrip_various_widths(self):
        writer = BitWriter()
        values = [(1, 1), (0, 1), (5, 3), (255, 8), (1023, 10), (0, 4)]
        for value, bits in values:
            writer.write(value, bits)
        writer.align()
        reader = BitReader(writer.getvalue())
        for value, bits in values:
            assert reader.read(bits) == value

    def test_align_pads_with_ones(self):
        writer = BitWriter()
        writer.write(0, 1)
        writer.align()
        assert writer.getvalue() == bytes([0b01111111])

    def test_unflushed_getvalue_rejected(self):
        writer = BitWriter()
        writer.write(1, 3)
        with pytest.raises(BitstreamError, match="unflushed"):
            writer.getvalue()

    def test_value_too_large_rejected(self):
        writer = BitWriter()
        with pytest.raises(BitstreamError):
            writer.write(4, 2)

    def test_reader_overrun_detected(self):
        reader = BitReader(b"\xff")
        reader.read(8)
        with pytest.raises(BitstreamError, match="exhausted"):
            reader.read(1)

    def test_reader_counts_bits(self):
        reader = BitReader(b"\xab\xcd")
        reader.read(4)
        reader.read(7)
        assert reader.bits_consumed == 11

    def test_reader_seek_and_align(self):
        reader = BitReader(b"\xab\xcd")
        reader.read(3)
        reader.align()
        assert reader.position_bits == 8
        reader.seek_bits(0)
        assert reader.read(8) == 0xAB

    def test_msb_first_order(self):
        writer = BitWriter()
        writer.write(0b1, 1)
        writer.write(0b0, 1)
        writer.write(0b111111, 6)
        writer.align()
        assert writer.getvalue() == bytes([0b10111111])
