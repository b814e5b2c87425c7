"""Differential tests: table-driven decoder vs. the bit-serial reference.

The lookup decoder (:mod:`repro.mjpeg.entropy`) must be *observably
identical* to the retained bit-serial one
(:mod:`tests.mjpeg.entropy_reference`): the same levels, DC predictor,
coefficient and nonzero counts, consumed bits and stream position on
every block of the Fig. 6 streams, and the same exception with the same
message on every truncated or corrupt stream.
"""

import random

import numpy as np
import pytest

from repro.exceptions import BitstreamError
from repro.mjpeg.bitstream import BitReader, BitWriter
from repro.mjpeg.encoder import HEADER_BYTES, _encode_block, parse_header
from repro.mjpeg.entropy import decode_block
from repro.mjpeg.tables import AC_TABLE, DC_TABLE, ZIGZAG
from tests.mjpeg import entropy_reference


def decode_both(fast_reader, slow_reader, predictor):
    """Decode one block with both decoders; the outcome of each is its
    result tuple or its exception's type and message."""
    outcomes = []
    for reader, decode in (
        (fast_reader, decode_block),
        (slow_reader, entropy_reference.decode_block),
    ):
        try:
            outcomes.append(decode(reader, predictor))
        except BitstreamError as error:
            outcomes.append((type(error), str(error)))
    return outcomes


def assert_same_block(fast, slow, fast_reader, slow_reader):
    levels, dc, coefficients, nonzero = fast
    expected_levels, expected_dc, expected_coefficients = slow
    assert levels.dtype == expected_levels.dtype
    assert np.array_equal(levels, expected_levels)
    assert dc == expected_dc
    assert coefficients == expected_coefficients
    assert nonzero == np.count_nonzero(expected_levels)
    assert fast_reader.bits_consumed == slow_reader.bits_consumed
    assert fast_reader.position_bits == slow_reader.position_bits


def decode_until_error(data, start_bit=0):
    """Decode blocks with both decoders from ``start_bit`` until they
    fail or the stream ends, asserting they agree all the way; returns
    the failure, or ``None`` for a stream that decodes whole."""
    fast_reader, slow_reader = BitReader(data), BitReader(data)
    fast_reader.seek_bits(start_bit)
    slow_reader.seek_bits(start_bit)
    predictor = 0
    while not slow_reader.exhausted:
        fast, slow = decode_both(fast_reader, slow_reader, predictor)
        if isinstance(slow[0], type):
            assert fast == slow
            return slow
        assert_same_block(fast, slow, fast_reader, slow_reader)
        predictor = slow[1]
    assert fast_reader.exhausted
    return None


def short_stream():
    """Four blocks: sparse, dense, a ZRL run, and a DC-only one."""
    rng = np.random.default_rng(11)
    natural = [np.zeros(64, dtype=np.int32) for _ in range(4)]
    natural[0][[0, 1, 9]] = [12, -3, 7]
    natural[1][:] = rng.integers(-40, 40, size=64)
    natural[2][ZIGZAG[0]] = 5
    natural[2][ZIGZAG[40]] = -2
    natural[3][0] = -700
    writer = BitWriter()
    predictor = 0
    for block in natural:
        predictor = _encode_block(
            writer, block[np.array(ZIGZAG)], predictor
        )
    bits = writer.bit_length
    writer.align()
    return writer.getvalue(), bits


def bits_of(data):
    return "".join(f"{byte:08b}" for byte in data)


def ending_at_byte(bits):
    """``(data, start_bit)``: ``bits`` at the end of whole bytes, behind
    one-bits that fill the first byte."""
    lead = -len(bits) % 8
    padded = "1" * lead + bits
    data = bytes(
        int(padded[i:i + 8], 2) for i in range(0, len(padded), 8)
    )
    return data, lead


class TestFig6Streams:
    @pytest.mark.parametrize("name", [
        "synthetic", "gradient", "photo", "checkerboard", "text", "blobs",
    ])
    def test_every_block_matches(self, fig6_sequences, name):
        data = fig6_sequences[name].data
        info = parse_header(data)
        fast_reader = BitReader(data[HEADER_BYTES:])
        slow_reader = BitReader(data[HEADER_BYTES:])
        order = ["y"] * (info.h * info.v) + ["cb", "cr"]
        blocks = 0
        for _frame in range(info.n_frames):
            predictors = {"y": 0, "cb": 0, "cr": 0}
            for _mcu in range(info.mcus_per_frame):
                for component in order:
                    fast, slow = decode_both(
                        fast_reader, slow_reader, predictors[component]
                    )
                    assert_same_block(fast, slow, fast_reader, slow_reader)
                    predictors[component] = slow[1]
                    blocks += 1
            fast_reader.align()
            slow_reader.align()
        assert fast_reader.exhausted and slow_reader.exhausted
        assert blocks == info.n_frames * info.mcus_per_frame * 10


class TestBadStreams:
    def test_every_truncation_raises_the_same_error(self):
        data, bits = short_stream()
        stream = bits_of(data)[:bits]
        reader = BitReader(data)
        block_ends = set()
        for _block in range(4):
            entropy_reference.decode_block(reader, 0)
            block_ends.add(reader.position_bits)
        assert max(block_ends) == bits
        assert decode_until_error(*ending_at_byte(stream)) is None
        for cut in range(1, bits):
            failure = decode_until_error(*ending_at_byte(stream[:cut]))
            if cut in block_ends:
                assert failure is None, cut
            else:
                assert failure[0] is BitstreamError, cut
                assert "exhausted" in failure[1], cut

    @pytest.mark.parametrize("trailing", [0, 3, 15, 16, 40])
    def test_all_ones_ac_code(self, trailing):
        dc_code, dc_length = DC_TABLE.encode(0)
        stream = f"{dc_code:0{dc_length}b}" + "1" * trailing
        failure = decode_until_error(*ending_at_byte(stream))
        assert failure is not None
        if trailing >= AC_TABLE.max_length:
            assert failure == (
                BitstreamError,
                "invalid Huffman code 0b1111111111111111 after 16 bits",
            )
        else:
            assert "exhausted" in failure[1]

    def test_all_ones_dc_code(self):
        failure = decode_until_error(b"\xff\xff")
        assert failure == (
            BitstreamError, "invalid Huffman code 0b111111111 after 9 bits"
        )

    def test_random_bytes(self):
        rng = random.Random(3)
        for _ in range(300):
            size = rng.randint(1, 40)
            data = bytes(rng.randrange(256) for _ in range(size))
            decode_until_error(data, rng.randrange(8))
