"""The five MJPEG actors of Fig. 5 with Microblaze-flavoured cost models.

Each actor is a functional implementation (real decode work on real token
values) paired with a cycle-cost model whose terms mirror what dominates on
a 100 MHz soft core without hardware divider/floating point:

* **VLD** -- bit-serial Huffman decoding: cost per consumed *bit* plus a
  per-coefficient store, plus per-block and per-MCU bookkeeping.
* **IQZZ** -- dequantization + de-zig-zag: cost per nonzero coefficient.
* **IDCT** -- coefficient-driven software IDCT: a fixed two-pass base plus
  a per-nonzero term (sparse blocks shortcut), tiny cost for padding
  blocks.
* **CC** -- color conversion: cost per pixel of the MCU.
* **Raster** -- framebuffer writes: cost per pixel.

WCETs are *scenario-based* (paper [4]: "Automatic scenario detection for
improved WCET estimation"): the bound is computed for the stream's actual
sampling format, e.g. 6 real + 4 padding blocks per MCU for 4:2:0 -- but
per-firing WCETs of IQZZ/IDCT must still assume a full block, because the
fixed SDF rates cannot distinguish padding firings.  That residual
pessimism is the "modeling overhead" Section 6.3 discusses.

Tokens:

* ``BlockToken`` -- zig-zag quantized levels (VLD -> IQZZ), natural-order
  dequantized coefficients (IQZZ -> IDCT) or spatial samples
  (IDCT -> CC); padding tokens carry ``valid=False``.
* ``HeaderToken`` -- frame geometry forwarded on subHeader1/subHeader2.
* CC -> Raster carries the MCU's RGB pixels plus its frame position.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.appmodel.implementation import FiringContext, FiringOutput
from repro.exceptions import BitstreamError
from repro.mjpeg.bitstream import BitReader
from repro.mjpeg.colors import upsample_nearest, ycbcr_to_rgb
from repro.mjpeg.dct import dequantize, idct_samples
from repro.mjpeg.encoder import (
    EncodedSequence,
    HEADER_BYTES,
    MAX_BLOCKS_PER_MCU,
    parse_header,
)
from repro.mjpeg.entropy import decode_block
from repro.mjpeg.tables import (
    BASE_CHROMA_QUANT,
    BASE_LUMA_QUANT,
    INVERSE_ZIGZAG,
    scaled_quant_table,
)

#: Worst-case bits to entropy-code one block: DC (9-bit code + 11
#: magnitude bits) plus 63 AC coefficients at (16-bit code + 10 magnitude
#: bits) each.
WORST_CASE_BLOCK_BITS = (9 + 11) + 63 * (16 + 10)


@dataclass(frozen=True)
class BlockToken:
    """One 8x8 block travelling between the pipeline stages."""

    component: str  # "y", "cb", "cr" or "pad"
    valid: bool
    payload: Optional[np.ndarray]  # stage-dependent content
    nonzero: int = 0  # nonzero coefficient count (cost-model input)


@dataclass(frozen=True)
class HeaderToken:
    """Frame geometry forwarded on the subHeader channels."""

    width: int
    height: int
    h: int
    v: int
    color: bool


@dataclass(frozen=True)
class PixelToken:
    """An MCU of RGB pixels plus its position in the frame."""

    pixels: np.ndarray  # (8v, 8h, 3) uint8
    mcu_x: int
    mcu_y: int
    frame_index: int


@dataclass(frozen=True)
class MJPEGCostModel:
    """Cycle-cost constants (see module docstring for rationale)."""

    vld_base: int = 9_000
    vld_per_block: int = 2_600
    vld_per_bit: int = 26
    vld_per_coefficient: int = 110
    vld_padding_block: int = 300

    iqzz_base: int = 1_800
    iqzz_per_nonzero: int = 140
    iqzz_padding: int = 400

    idct_base: int = 90_000
    idct_per_nonzero: int = 5_200
    idct_padding: int = 500

    cc_base: int = 15_000
    cc_per_pixel: int = 95

    raster_base: int = 8_000
    raster_per_pixel: int = 28

    # ------------------------------------------------------------------
    # scenario-based WCETs (per firing)
    # ------------------------------------------------------------------
    def vld_wcet(self, real_blocks: int) -> int:
        """Worst case: every real block fully coded at maximal bit cost."""
        padding = MAX_BLOCKS_PER_MCU - real_blocks
        return (
            self.vld_base
            + real_blocks
            * (
                self.vld_per_block
                + WORST_CASE_BLOCK_BITS * self.vld_per_bit
                + 64 * self.vld_per_coefficient
            )
            + padding * self.vld_padding_block
        )

    def iqzz_wcet(self) -> int:
        """One full block: all 64 coefficients nonzero."""
        return self.iqzz_base + 64 * self.iqzz_per_nonzero

    def idct_wcet(self) -> int:
        return self.idct_base + 64 * self.idct_per_nonzero

    def cc_wcet(self, mcu_pixels: int) -> int:
        return self.cc_base + mcu_pixels * self.cc_per_pixel

    def raster_wcet(self, mcu_pixels: int) -> int:
        return self.raster_base + mcu_pixels * self.raster_per_pixel


@dataclass
class MJPEGActorSet:
    """The actor functions for one encoded sequence + cost model."""

    encoded: EncodedSequence
    cost: MJPEGCostModel = field(default_factory=MJPEGCostModel)

    def __post_init__(self) -> None:
        self.info = parse_header(self.encoded.data)
        self._luma_table = scaled_quant_table(
            BASE_LUMA_QUANT, self.info.quality
        )
        self._chroma_table = scaled_quant_table(
            BASE_CHROMA_QUANT, self.info.quality
        )
        self._unzigzag = np.array(INVERSE_ZIGZAG)
        #: component of each real block within one MCU, in stream order
        order = ["y"] * (self.info.h * self.info.v)
        if self.info.color:
            order += ["cb", "cr"]
        self.block_order: Tuple[str, ...] = tuple(order)

    # ------------------------------------------------------------------
    # VLD
    # ------------------------------------------------------------------
    def vld_init(self, state: Dict[str, object]) -> Dict[str, List[object]]:
        state["reader"] = BitReader(self.encoded.data[HEADER_BYTES:])
        state["predictors"] = {"y": 0, "cb": 0, "cr": 0}
        state["mcu_in_frame"] = 0
        state["frame_index"] = 0
        return {}

    def vld(self, ctx: FiringContext) -> FiringOutput:
        """Decode one MCU: up to 10 block tokens + the subheader tokens."""
        info = self.info
        reader: BitReader = ctx.state["reader"]
        predictors: Dict[str, int] = ctx.state["predictors"]

        bits_before = reader.bits_consumed
        blocks: List[BlockToken] = []
        coefficients = 0
        for component in self.block_order:
            levels, new_dc, count, nonzero = decode_block(
                reader, predictors[component]
            )
            predictors[component] = new_dc
            blocks.append(
                BlockToken(
                    component=component,
                    valid=True,
                    payload=levels,
                    nonzero=nonzero,
                )
            )
            coefficients += count
        while len(blocks) < MAX_BLOCKS_PER_MCU:
            blocks.append(
                BlockToken(component="pad", valid=False, payload=None)
            )

        bits = reader.bits_consumed - bits_before
        real = len(self.block_order)
        cycles = (
            self.cost.vld_base
            + real * self.cost.vld_per_block
            + bits * self.cost.vld_per_bit
            + coefficients * self.cost.vld_per_coefficient
            + (MAX_BLOCKS_PER_MCU - real) * self.cost.vld_padding_block
        )

        # Advance stream position; wrap at the end of the file (the
        # decoder loops the sequence to expose long-term throughput).
        ctx.state["mcu_in_frame"] += 1
        if ctx.state["mcu_in_frame"] >= info.mcus_per_frame:
            ctx.state["mcu_in_frame"] = 0
            ctx.state["frame_index"] += 1
            reader.align()
            predictors.update({"y": 0, "cb": 0, "cr": 0})
            if ctx.state["frame_index"] >= info.n_frames:
                ctx.state["frame_index"] = 0
                reader.seek_bits(0)

        header = HeaderToken(
            width=info.width, height=info.height,
            h=info.h, v=info.v, color=info.color,
        )
        return FiringOutput(
            outputs={
                "vld2iqzz": blocks,
                "subHeader1": [header],
                "subHeader2": [header],
            },
            cycles=cycles,
        )

    # ------------------------------------------------------------------
    # IQZZ
    # ------------------------------------------------------------------
    def iqzz(self, ctx: FiringContext) -> FiringOutput:
        token: BlockToken = ctx.single("vld2iqzz")
        if not token.valid:
            return FiringOutput(
                outputs={"iqzz2idct": [token]},
                cycles=self.cost.iqzz_padding,
            )
        table = (
            self._luma_table if token.component == "y"
            else self._chroma_table
        )
        natural = token.payload[self._unzigzag].reshape(8, 8)
        coefficients = dequantize(natural, table)
        out = BlockToken(
            component=token.component,
            valid=True,
            payload=coefficients.astype(np.int16),
            nonzero=token.nonzero,
        )
        cycles = (
            self.cost.iqzz_base
            + token.nonzero * self.cost.iqzz_per_nonzero
        )
        return FiringOutput(outputs={"iqzz2idct": [out]}, cycles=cycles)

    # ------------------------------------------------------------------
    # IDCT
    # ------------------------------------------------------------------
    def idct(self, ctx: FiringContext) -> FiringOutput:
        token: BlockToken = ctx.single("iqzz2idct")
        if not token.valid:
            return FiringOutput(
                outputs={"idct2cc": [token]},
                cycles=self.cost.idct_padding,
            )
        samples = idct_samples(token.payload.astype(np.int32))
        out = BlockToken(
            component=token.component,
            valid=True,
            payload=samples,
            nonzero=token.nonzero,
        )
        cycles = (
            self.cost.idct_base
            + token.nonzero * self.cost.idct_per_nonzero
        )
        return FiringOutput(outputs={"idct2cc": [out]}, cycles=cycles)

    # ------------------------------------------------------------------
    # CC
    # ------------------------------------------------------------------
    def cc(self, ctx: FiringContext) -> FiringOutput:
        header: HeaderToken = ctx.single("subHeader1")
        blocks: List[BlockToken] = ctx.inputs["idct2cc"]
        mcu_index = ctx.state.get("mcu_index", 0)
        info = self.info
        mcu_x = mcu_index % info.mcus_x
        mcu_y = (mcu_index // info.mcus_x) % info.mcus_y
        frame_index = mcu_index // info.mcus_per_frame

        h, v = header.h, header.v
        luma = np.zeros((8 * v, 8 * h), dtype=np.uint8)
        position = 0
        for by in range(v):
            for bx in range(h):
                luma[8 * by:8 * by + 8, 8 * bx:8 * bx + 8] = (
                    blocks[position].payload
                )
                position += 1
        if header.color:
            cb = upsample_nearest(blocks[position].payload, v, h)
            cr = upsample_nearest(blocks[position + 1].payload, v, h)
            ycbcr = np.stack([luma, cb, cr], axis=-1)
            pixels = ycbcr_to_rgb(ycbcr)
        else:
            pixels = np.stack([luma, luma, luma], axis=-1)

        ctx.state["mcu_index"] = mcu_index + 1
        n_pixels = pixels.shape[0] * pixels.shape[1]
        cycles = self.cost.cc_base + n_pixels * self.cost.cc_per_pixel
        token = PixelToken(
            pixels=pixels, mcu_x=mcu_x, mcu_y=mcu_y,
            frame_index=frame_index,
        )
        return FiringOutput(outputs={"cc2raster": [token]}, cycles=cycles)

    # ------------------------------------------------------------------
    # Raster
    # ------------------------------------------------------------------
    def raster(self, ctx: FiringContext) -> FiringOutput:
        header: HeaderToken = ctx.single("subHeader2")
        token: PixelToken = ctx.single("cc2raster")
        framebuffer = ctx.state.get("framebuffer")
        if framebuffer is None:
            framebuffer = np.zeros(
                (header.height, header.width, 3), dtype=np.uint8
            )
            ctx.state["framebuffer"] = framebuffer
            ctx.state["frames"] = []
            ctx.state["mcus_filled"] = 0

        mcu_h = 8 * header.v
        mcu_w = 8 * header.h
        y0 = token.mcu_y * mcu_h
        x0 = token.mcu_x * mcu_w
        framebuffer[y0:y0 + mcu_h, x0:x0 + mcu_w] = token.pixels

        ctx.state["mcus_filled"] += 1
        per_frame = (header.width // mcu_w) * (header.height // mcu_h)
        if ctx.state["mcus_filled"] >= per_frame:
            ctx.state["frames"].append(framebuffer.copy())
            ctx.state["mcus_filled"] = 0

        n_pixels = mcu_h * mcu_w
        cycles = (
            self.cost.raster_base + n_pixels * self.cost.raster_per_pixel
        )
        return FiringOutput(outputs={}, cycles=cycles)
