"""Entropy decoding shared by the reference decoder and the VLD actor.

Canonical Huffman decoding by table lookup: the next ``max_length`` bits
of the stream index :attr:`HuffmanTable.lookup`, which gives the symbol
and its code length at once, and the magnitude bits that follow come from
the same 32-bit window.  Only the host decodes a symbol per lookup: the
reader still counts every consumed bit, and the VLD cost model charges
per bit and per decoded coefficient, as for the bit-serial decoder a
Microblaze would run (read a bit, extend the code, look it up).  A bad
stream raises the error that bit-serial decoder would.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import BitstreamError
from repro.mjpeg.bitstream import BitReader, overrun
from repro.mjpeg.tables import (
    AC_TABLE,
    DC_TABLE,
    EOB,
    HuffmanTable,
    ZRL,
    decode_magnitude,
)


def _code_at(
    table: HuffmanTable, window: int, position: int, end: int
) -> Tuple[int, int]:
    """``(symbol, code length)`` of the ``table`` code that ``window``,
    the bits from ``position`` on, starts with.  Raises what a bit-serial
    decoder would where none fits before bit ``end``: an invalid code if
    ``max_length`` bits remain, else the read of the bit after ``end``."""
    entry = table.lookup[window >> (32 - table.max_length)]
    if entry is not None and position + entry[1] <= end:
        return entry
    if end - position >= table.max_length:
        code = window >> (32 - table.max_length)
        raise BitstreamError(
            f"invalid Huffman code 0b{code:b} after {table.max_length} bits"
        )
    raise overrun(end, 1)


def _overflow(index: int) -> BitstreamError:
    return BitstreamError(f"AC run overflows the block (index {index})")


def decode_block(
    reader: BitReader, dc_predictor: int
) -> Tuple[np.ndarray, int, int, int]:
    """Decode one block.

    Returns ``(levels in zig-zag order (int32[64]), new DC predictor,
    coefficients decoded, nonzero levels)``.  The coefficient count (DC +
    decoded ACs) and the nonzero count feed the VLD cost model.  On a bad
    stream the reader stays at the start of the block.
    """
    window_at = reader.window
    end = reader.length_bits
    start = position = reader.position_bits

    window = window_at(position)
    category, length = _code_at(DC_TABLE, window, position, end)
    position += length
    if position + category > end:
        raise overrun(position, category)
    dc = dc_predictor + decode_magnitude(
        (window >> (32 - length - category)) & ((1 << category) - 1),
        category,
    )
    position += category
    levels = [0] * 64
    levels[0] = dc
    coefficients = 1

    index = 1
    while index < 64:
        window = window_at(position)
        symbol, length = _code_at(AC_TABLE, window, position, end)
        position += length
        if symbol == EOB:
            break
        if symbol == ZRL:
            index += 16
            if index > 64:
                raise _overflow(index)
            continue
        index += symbol >> 4
        if index >= 64:
            raise _overflow(index)
        category = symbol & 0x0F
        if position + category > end:
            raise overrun(position, category)
        levels[index] = decode_magnitude(
            (window >> (32 - length - category)) & ((1 << category) - 1),
            category,
        )
        position += category
        coefficients += 1
        index += 1
    reader.skip(position - start)
    return (
        np.array(levels, dtype=np.int32), dc, coefficients,
        64 - levels.count(0),
    )
