"""Tests for DCT, entropy coding and the encoder/reference-decoder pair."""

import numpy as np
import pytest

from repro.exceptions import BitstreamError
from repro.mjpeg.bitstream import BitReader, BitWriter
from repro.mjpeg.dct import (
    dequantize,
    forward_dct,
    idct_samples,
    inverse_dct,
    quantize,
)
from repro.mjpeg.encoder import (
    EncodedSequence,
    HEADER_BYTES,
    _encode_block,
    encode_sequence,
    parse_header,
)
from repro.mjpeg.entropy import decode_block
from repro.mjpeg.reference import decode_sequence, psnr
from repro.mjpeg.sequences import (
    gradient_sequence,
    synthetic_sequence,
    test_set_sequences as build_test_set,
)
from repro.mjpeg.tables import AC_TABLE, DC_TABLE, EOB, ZIGZAG, ZRL


class TestDCT:
    def test_inverse_of_forward(self):
        rng = np.random.default_rng(1)
        block = rng.uniform(-128, 127, size=(8, 8))
        roundtrip = inverse_dct(forward_dct(block))
        assert np.allclose(roundtrip, block, atol=1e-9)

    def test_dc_coefficient_is_scaled_mean(self):
        block = np.full((8, 8), 10.0)
        coefficients = forward_dct(block)
        assert coefficients[0, 0] == pytest.approx(80.0)  # 8 * mean
        assert np.allclose(coefficients.ravel()[1:], 0.0, atol=1e-9)

    def test_quantize_dequantize(self):
        rng = np.random.default_rng(2)
        coefficients = rng.uniform(-500, 500, size=(8, 8))
        table = np.full((8, 8), 16, dtype=np.int32)
        levels = quantize(coefficients, table)
        restored = dequantize(levels, table)
        assert np.abs(restored - coefficients).max() <= 8  # half a step

    def test_idct_samples_clamped(self):
        coefficients = np.zeros((8, 8), dtype=np.int32)
        coefficients[0, 0] = 3000  # far beyond the clamp
        samples = idct_samples(coefficients)
        assert samples.max() == 255
        coefficients[0, 0] = -3000
        assert idct_samples(coefficients).min() == 0


class TestBlockEntropyRoundtrip:
    def roundtrip(self, levels_natural):
        zigzag = np.array(ZIGZAG)
        writer = BitWriter()
        dc = _encode_block(writer, levels_natural.ravel()[zigzag], 0)
        writer.align()
        reader = BitReader(writer.getvalue())
        decoded, new_dc, count, _nonzero = decode_block(reader, 0)
        # decoded is in zig-zag scan order; undo the permutation
        natural = np.zeros(64, dtype=np.int32)
        natural[zigzag] = decoded
        return natural.reshape(8, 8), count

    def test_sparse_block(self):
        levels = np.zeros((8, 8), dtype=np.int32)
        levels[0, 0] = 12
        levels[0, 1] = -3
        levels[2, 2] = 7
        decoded, count = self.roundtrip(levels)
        assert np.array_equal(decoded, levels)
        assert count == 3

    def test_dense_block(self):
        rng = np.random.default_rng(3)
        levels = rng.integers(-40, 40, size=(8, 8)).astype(np.int32)
        decoded, _ = self.roundtrip(levels)
        assert np.array_equal(decoded, levels)

    def test_long_zero_runs(self):
        levels = np.zeros((8, 8), dtype=np.int32)
        levels.ravel()[ZIGZAG[63]] = 0  # keep zero
        natural = np.zeros(64, dtype=np.int32)
        natural[ZIGZAG[0]] = 5
        natural[ZIGZAG[40]] = -2  # forces a ZRL run of >16
        decoded, _ = self.roundtrip(natural.reshape(8, 8))
        assert np.array_equal(decoded, natural.reshape(8, 8))

    def test_all_zero_block(self):
        levels = np.zeros((8, 8), dtype=np.int32)
        decoded, count = self.roundtrip(levels)
        assert np.array_equal(decoded, levels)
        assert count == 1  # just the DC

    @staticmethod
    def zrl_block(zrls):
        """A DC of 0, then ``zrls`` ZRL codes and an EOB."""
        writer = BitWriter()
        writer.write(*DC_TABLE.encode(0))
        for _ in range(zrls):
            writer.write(*AC_TABLE.encode(ZRL))
        writer.write(*AC_TABLE.encode(EOB))
        writer.align()
        return BitReader(writer.getvalue())

    def test_zrls_within_the_block(self):
        levels, dc, count, nonzero = decode_block(self.zrl_block(3), 0)
        assert not levels.any()
        assert (dc, count, nonzero) == (0, 1, 0)

    def test_zrl_to_the_block_end_ends_it(self):
        # level 1 at index 15, then three ZRLs fill 16..63: no EOB
        writer = BitWriter()
        writer.write(*DC_TABLE.encode(0))
        writer.write(*AC_TABLE.encode(0xE1))
        writer.write(1, 1)
        for _ in range(3):
            writer.write(*AC_TABLE.encode(ZRL))
        bits = writer.bit_length
        writer.align()
        reader = BitReader(writer.getvalue())
        levels, _dc, count, nonzero = decode_block(reader, 0)
        assert np.flatnonzero(levels).tolist() == [15]
        assert (count, nonzero) == (2, 1)
        assert reader.position_bits == bits

    def test_zrl_past_the_block_rejected(self):
        # four ZRLs take the coefficient index from 1 to 65
        with pytest.raises(
            BitstreamError, match=r"AC run overflows the block \(index 65\)"
        ):
            decode_block(self.zrl_block(4), 0)


class TestEncoder:
    def test_header_roundtrip(self):
        frames = gradient_sequence(n_frames=3, width=32, height=32)
        encoded = encode_sequence(frames, quality=60, h=2, v=2)
        info = parse_header(encoded.data)
        assert info.width == 32 and info.height == 32
        assert info.h == 2 and info.v == 2
        assert info.quality == 60
        assert info.n_frames == 3
        assert info.color

    def test_geometry_properties(self):
        frames = gradient_sequence(n_frames=1, width=64, height=32)
        encoded = encode_sequence(frames, h=2, v=2)
        assert encoded.mcu_width == 16 and encoded.mcu_height == 16
        assert encoded.mcus_x == 4 and encoded.mcus_y == 2
        assert encoded.mcus_per_frame == 8
        assert encoded.blocks_per_mcu == 6

    def test_ten_block_limit_enforced(self):
        frames = gradient_sequence(n_frames=1, width=64, height=64)
        with pytest.raises(BitstreamError, match="blocks per MCU"):
            encode_sequence(frames, h=4, v=4)

    def test_eight_plus_two_blocks_allowed(self):
        frames = gradient_sequence(n_frames=1, width=64, height=32)
        encoded = encode_sequence(frames, h=4, v=2)
        assert encoded.blocks_per_mcu == 10  # the paper's maximum

    def test_misaligned_frame_rejected(self):
        frames = gradient_sequence(n_frames=1, width=60, height=60)
        with pytest.raises(BitstreamError, match="multiple"):
            encode_sequence(frames, h=2, v=2)

    def test_grayscale_mode(self):
        frames = gradient_sequence(n_frames=1, width=32, height=32)
        encoded = encode_sequence(frames, color=False, h=1, v=1)
        assert encoded.blocks_per_mcu == 1
        decoded = decode_sequence(encoded)
        assert decoded[0].shape == (32, 32, 3)

    def test_bad_magic_rejected(self):
        with pytest.raises(BitstreamError, match="magic"):
            parse_header(b"NOPE" + b"\x00" * 20)


class TestEndToEnd:
    @pytest.mark.parametrize("name", [
        "gradient", "photo", "checkerboard", "text", "blobs",
    ])
    def test_sequences_decode_with_reasonable_quality(self, name):
        frames = build_test_set(n_frames=2)[name]
        encoded = encode_sequence(frames, quality=75)
        decoded = decode_sequence(encoded)
        assert len(decoded) == 2
        for original, restored in zip(frames, decoded):
            assert psnr(original, restored) > 20.0

    def test_smooth_content_high_psnr(self):
        frames = gradient_sequence(n_frames=1)
        encoded = encode_sequence(frames, quality=90)
        decoded = decode_sequence(encoded)
        assert psnr(frames[0], decoded[0]) > 35.0

    def test_higher_quality_improves_psnr(self):
        frames = build_test_set(n_frames=1)["photo"]
        low = decode_sequence(encode_sequence(frames, quality=30))
        high = decode_sequence(encode_sequence(frames, quality=90))
        assert psnr(frames[0], high[0]) > psnr(frames[0], low[0])

    def test_synthetic_compresses_poorly(self):
        """Random noise needs far more bits per MCU than structured
        content -- the property that drives it toward the WCET."""
        structured = encode_sequence(
            gradient_sequence(n_frames=1), quality=75
        )
        noise = encode_sequence(synthetic_sequence(n_frames=1), quality=75)
        assert len(noise.data) > 3 * len(structured.data)

    def test_multi_frame_stream_decodes_every_frame(self):
        frames = build_test_set(n_frames=4)["blobs"]
        encoded = encode_sequence(frames, quality=75)
        decoded = decode_sequence(encoded)
        assert len(decoded) == 4
        # Frames differ (the blobs move) and each decodes acceptably.
        assert not np.array_equal(decoded[0], decoded[3])
        for original, restored in zip(frames, decoded):
            assert psnr(original, restored) > 20.0

    def test_psnr_identical_is_infinite(self):
        image = gradient_sequence(n_frames=1)[0]
        assert psnr(image, image) == float("inf")
