"""Reference bit-serial entropy decoder (the pre-table decoder), retained.

This is the straightforward canonical Huffman decoder that the
table-driven one in :mod:`repro.mjpeg.entropy` replaced: read one bit,
extend the code, look ``(length, code)`` up, repeat.  It is slow, but
simple enough to audit by eye against the JPEG standard.  It is kept as
the *oracle* for ``tests/mjpeg/test_entropy_differential.py``: the
production decoder must return the same levels, DC predictor,
coefficient count, bit count and stream position on every block, and
raise the same exception with the same message on every bad stream.

Do not use this module in production code paths; it exists to keep the
fast decoder honest.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import BitstreamError
from repro.mjpeg.bitstream import BitReader
from repro.mjpeg.tables import (
    AC_TABLE,
    DC_TABLE,
    EOB,
    HuffmanTable,
    ZRL,
    decode_magnitude,
)


def decode_symbol(reader: BitReader, table: HuffmanTable) -> int:
    """Decode one Huffman symbol bit-serially."""
    code = 0
    for length in range(1, table.max_length + 1):
        code = (code << 1) | reader.read(1)
        symbol = table.decode_map.get((length, code))
        if symbol is not None:
            return symbol
    raise BitstreamError(
        f"invalid Huffman code 0b{code:b} after {table.max_length} bits"
    )


def decode_block(
    reader: BitReader, dc_predictor: int
) -> Tuple[np.ndarray, int, int]:
    """Decode one block.

    Returns ``(levels in zig-zag order (int32[64]), new DC predictor,
    coefficients decoded)``.
    """
    levels = np.zeros(64, dtype=np.int32)
    category = decode_symbol(reader, DC_TABLE)
    diff = decode_magnitude(reader.read(category), category) if category \
        else 0
    dc = dc_predictor + diff
    levels[0] = dc
    coefficients = 1

    index = 1
    while index < 64:
        symbol = decode_symbol(reader, AC_TABLE)
        if symbol == EOB:
            break
        if symbol == ZRL:
            index += 16
            if index > 64:
                raise BitstreamError(
                    f"AC run overflows the block (index {index})"
                )
            continue
        run = symbol >> 4
        category = symbol & 0x0F
        index += run
        if index >= 64:
            raise BitstreamError(
                f"AC run overflows the block (index {index})"
            )
        levels[index] = decode_magnitude(
            reader.read(category), category
        )
        coefficients += 1
        index += 1
    return levels, dc, coefficients
