"""Whole-frame numpy reference decoder.

Decodes an encoded sequence directly (no actors, no platform) -- the
golden model the actor pipeline's framebuffer output is compared against.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.mjpeg.bitstream import BitReader
from repro.mjpeg.colors import upsample_nearest, ycbcr_to_rgb
from repro.mjpeg.dct import dequantize, idct_samples
from repro.mjpeg.encoder import (
    EncodedSequence,
    HEADER_BYTES,
    parse_header,
)
from repro.mjpeg.entropy import decode_block
from repro.mjpeg.tables import (
    BASE_CHROMA_QUANT,
    BASE_LUMA_QUANT,
    INVERSE_ZIGZAG,
    scaled_quant_table,
)


def decode_sequence(encoded: EncodedSequence) -> List[np.ndarray]:
    """Decode every frame back to RGB (HxWx3 uint8)."""
    info = parse_header(encoded.data)
    reader = BitReader(encoded.data[HEADER_BYTES:])
    luma_table = scaled_quant_table(BASE_LUMA_QUANT, info.quality)
    chroma_table = scaled_quant_table(BASE_CHROMA_QUANT, info.quality)
    unzigzag = np.array(INVERSE_ZIGZAG)

    frames: List[np.ndarray] = []
    for _frame_index in range(info.n_frames):
        y_plane = np.zeros((info.height, info.width), dtype=np.uint8)
        if info.color:
            cb_plane = np.zeros(
                (info.height // info.v, info.width // info.h),
                dtype=np.uint8,
            )
            cr_plane = np.zeros_like(cb_plane)
        predictors = {"y": 0, "cb": 0, "cr": 0}

        for mcu_y in range(info.mcus_y):
            for mcu_x in range(info.mcus_x):
                for by in range(info.v):
                    for bx in range(info.h):
                        levels, predictors["y"], _n, _z = decode_block(
                            reader, predictors["y"]
                        )
                        block = levels[unzigzag].reshape(8, 8)
                        samples = idct_samples(
                            dequantize(block, luma_table)
                        )
                        y0 = mcu_y * 8 * info.v + 8 * by
                        x0 = mcu_x * 8 * info.h + 8 * bx
                        y_plane[y0:y0 + 8, x0:x0 + 8] = samples
                if info.color:
                    for name, plane, table in (
                        ("cb", cb_plane, chroma_table),
                        ("cr", cr_plane, chroma_table),
                    ):
                        levels, predictors[name], _n, _z = decode_block(
                            reader, predictors[name]
                        )
                        block = levels[unzigzag].reshape(8, 8)
                        samples = idct_samples(dequantize(block, table))
                        plane[
                            mcu_y * 8:mcu_y * 8 + 8,
                            mcu_x * 8:mcu_x * 8 + 8,
                        ] = samples
        reader.align()

        if info.color:
            ycbcr = np.stack(
                [
                    y_plane,
                    upsample_nearest(cb_plane, info.v, info.h),
                    upsample_nearest(cr_plane, info.v, info.h),
                ],
                axis=-1,
            )
            frames.append(ycbcr_to_rgb(ycbcr))
        else:
            frames.append(
                np.stack([y_plane, y_plane, y_plane], axis=-1)
            )
    return frames


def psnr(reference: np.ndarray, decoded: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB (inf for identical images)."""
    error = (
        reference.astype(np.float64) - decoded.astype(np.float64)
    )
    mse = float(np.mean(error * error))
    if mse == 0:
        return float("inf")
    return 10.0 * np.log10(255.0 * 255.0 / mse)
