"""JPEG coding tables: zig-zag scan, quantization, Huffman codes.

Quantization tables are the ISO/IEC 10918-1 Annex K examples with the usual
linear quality scaling.  Huffman tables are built canonically from the
Annex K BITS/HUFFVAL specifications for luminance DC and AC; this codec
uses the luminance pair for all components (a documented simplification --
the decode path exercised by the case study is identical).
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import BitstreamError

#: Zig-zag scan order: index = zigzag position, value = row-major position.
ZIGZAG: Tuple[int, ...] = (
    0, 1, 8, 16, 9, 2, 3, 10,
    17, 24, 32, 25, 18, 11, 4, 5,
    12, 19, 26, 33, 40, 48, 41, 34,
    27, 20, 13, 6, 7, 14, 21, 28,
    35, 42, 49, 56, 57, 50, 43, 36,
    29, 22, 15, 23, 30, 37, 44, 51,
    58, 59, 52, 45, 38, 31, 39, 46,
    53, 60, 61, 54, 47, 55, 62, 63,
)

#: Inverse permutation: row-major position -> zig-zag position.
INVERSE_ZIGZAG: Tuple[int, ...] = tuple(
    ZIGZAG.index(i) for i in range(64)
)

#: Annex K luminance quantization table (row-major).
BASE_LUMA_QUANT = np.array(
    [
        16, 11, 10, 16, 24, 40, 51, 61,
        12, 12, 14, 19, 26, 58, 60, 55,
        14, 13, 16, 24, 40, 57, 69, 56,
        14, 17, 22, 29, 51, 87, 80, 62,
        18, 22, 37, 56, 68, 109, 103, 77,
        24, 35, 55, 64, 81, 104, 113, 92,
        49, 64, 78, 87, 103, 121, 120, 101,
        72, 92, 95, 98, 112, 100, 103, 99,
    ],
    dtype=np.int32,
).reshape(8, 8)

#: Annex K chrominance quantization table (row-major).
BASE_CHROMA_QUANT = np.array(
    [
        17, 18, 24, 47, 99, 99, 99, 99,
        18, 21, 26, 66, 99, 99, 99, 99,
        24, 26, 56, 99, 99, 99, 99, 99,
        47, 66, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
    ],
    dtype=np.int32,
).reshape(8, 8)


def scaled_quant_table(base: np.ndarray, quality: int) -> np.ndarray:
    """IJG-style linear quality scaling (quality in 1..100)."""
    if not 1 <= quality <= 100:
        raise BitstreamError(f"quality must be in 1..100, got {quality}")
    if quality < 50:
        scale = 5000 // quality
    else:
        scale = 200 - 2 * quality
    table = (base * scale + 50) // 100
    return np.clip(table, 1, 255).astype(np.int32)


# ---------------------------------------------------------------------------
# Huffman tables (Annex K, luminance)
# ---------------------------------------------------------------------------
#: BITS[i] = number of codes of length i+1; HUFFVAL = symbols in code order.
DC_BITS = (0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0)
DC_HUFFVAL = tuple(range(12))

AC_BITS = (0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D)
AC_HUFFVAL = (
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12,
    0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
    0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
    0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0,
    0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16,
    0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
    0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
    0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
    0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
    0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
    0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
    0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
    0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
    0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7,
    0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
    0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5,
    0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4,
    0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
    0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA,
    0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
    0xF9, 0xFA,
)

#: AC symbol meaning: high nibble = run of zeros, low nibble = size class.
ZRL = 0xF0  # sixteen zeros
EOB = 0x00  # end of block


class HuffmanTable:
    """A canonical Huffman code: symbol <-> (code, length).

    Decoding uses :attr:`lookup`, indexed by the next ``max_length`` bits
    of the stream.
    """

    def __init__(self, bits: Tuple[int, ...], huffval: Tuple[int, ...]):
        if len(bits) != 16:
            raise BitstreamError("BITS must have 16 entries")
        if sum(bits) != len(huffval):
            raise BitstreamError(
                f"BITS announces {sum(bits)} codes but HUFFVAL has "
                f"{len(huffval)}"
            )
        self.encode_map: Dict[int, Tuple[int, int]] = {}
        #: (length, code) -> symbol, for decoding
        self.decode_map: Dict[Tuple[int, int], int] = {}
        self.max_length = 0
        code = 0
        index = 0
        for length_minus_1, count in enumerate(bits):
            length = length_minus_1 + 1
            for _ in range(count):
                symbol = huffval[index]
                self.encode_map[symbol] = (code, length)
                self.decode_map[(length, code)] = symbol
                code += 1
                index += 1
                self.max_length = length
            code <<= 1

    @cached_property
    def lookup(self) -> List[Optional[Tuple[int, int]]]:
        """``(symbol, code length)`` of the code each ``max_length``-bit
        window starts with, or ``None`` where no code matches.

        Built on first use: importing the codec costs nothing.
        """
        table: List[Optional[Tuple[int, int]]] = [None] * (
            1 << self.max_length
        )
        for (length, code), symbol in self.decode_map.items():
            free = self.max_length - length
            first = code << free
            table[first:first + (1 << free)] = [(symbol, length)] * (
                1 << free
            )
        return table

    def encode(self, symbol: int) -> Tuple[int, int]:
        """(code, bit length) of a symbol."""
        try:
            return self.encode_map[symbol]
        except KeyError:
            raise BitstreamError(
                f"symbol {symbol:#x} not in Huffman table"
            ) from None


DC_TABLE = HuffmanTable(DC_BITS, DC_HUFFVAL)
AC_TABLE = HuffmanTable(AC_BITS, AC_HUFFVAL)


def magnitude_category(value: int) -> int:
    """JPEG size class: number of bits to represent |value|."""
    magnitude = abs(value)
    category = 0
    while magnitude:
        magnitude >>= 1
        category += 1
    return category


def encode_magnitude(value: int, category: int) -> int:
    """JPEG amplitude encoding: negatives use one's-complement form."""
    if value >= 0:
        return value
    return value + (1 << category) - 1


def decode_magnitude(bits: int, category: int) -> int:
    """Inverse of :func:`encode_magnitude`."""
    if category == 0:
        return 0
    if bits < (1 << (category - 1)):
        return bits - (1 << category) + 1
    return bits
