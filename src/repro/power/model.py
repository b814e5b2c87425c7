"""Platform power model with technology-node scaling.

The model follows the lumos MPSoC template: every component contributes
a *static* (leakage) term proportional to its occupied resources and a
*dynamic* (switching) term that is only paid while the component is
active, and both terms scale with the technology node.  The absolute
calibration constants are typical of Virtex-6-era soft cores at the
45 nm base node (mirroring :mod:`repro.arch.area`); the *relative*
quantities -- the static/dynamic split, the per-hop NoC surcharge over
a dedicated FSL FIFO (Marcon-style bit energy), and the node-scaling
trends -- are what the estimates reproduce.

All quantities are exact :class:`fractions.Fraction` values in fixed
units (micro-watts for power, pico-joules for energy) so estimates are
bit-reproducible and round-trip byte-identically through the artifact
schema.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from repro.arch.interconnect import FSLInterconnect, Interconnect
from repro.arch.noc import SDMNoC
from repro.arch.tile import Tile
from repro.arch.area import FSL_LINK_SLICES, noc_router_slices, tile_area
from repro.exceptions import PowerError

#: Base technology node of all calibration constants (nm).
BASE_TECH_NM = 45

#: Supported nodes -> exact (dynamic_scale, static_scale) factors.
#: Dynamic power per operation shrinks with the node (lower C*V^2) while
#: leakage grows -- the post-Dennard trend the lumos model captures.
TECH_NODES: Dict[int, Tuple[Fraction, Fraction]] = {
    45: (Fraction(1), Fraction(1)),
    32: (Fraction(3, 4), Fraction(4, 3)),
    22: (Fraction(1, 2), Fraction(2)),
    16: (Fraction(3, 8), Fraction(3)),
}

#: Static (leakage) power per occupied slice, microwatts at 45 nm.
STATIC_UW_PER_SLICE = 2
#: Static power per block RAM, microwatts at 45 nm.
STATIC_UW_PER_BRAM = 40
#: Dynamic power of one active Microblaze core, microwatts at 45 nm.
MICROBLAZE_DYNAMIC_UW = 80_000
#: Dynamic power of an active communication assist, microwatts.
CA_DYNAMIC_UW = 15_000
#: Dynamic power of the per-tile network-interface glue, microwatts.
NI_DYNAMIC_UW = 5_000
#: Dynamic power of one peripheral controller, microwatts.
PERIPHERAL_DYNAMIC_UW = 8_000
#: Dynamic power of one SDM router under full load, microwatts.
NOC_ROUTER_DYNAMIC_UW = 12_000
#: Dynamic power of one allocated FSL FIFO link, microwatts.
FSL_LINK_DYNAMIC_UW = 1_000

#: Energy to push one 32-bit word through a dedicated FSL FIFO, pJ.
FSL_WORD_PJ = 3
#: NoC network-interface packetisation energy per 32-bit word, pJ.
NOC_INJECTION_PJ_PER_WORD = 6
#: Energy per 32-bit word per router/link hop traversed (Marcon-style
#: bit energy aggregated to word granularity), pJ.
NOC_HOP_PJ_PER_WORD = 4
#: Bytes per interconnect word.
WORD_BYTES = 4


def words_per_token(token_size: int) -> int:
    """Interconnect words needed to carry one token."""
    return -(-max(token_size, 0) // WORD_BYTES)  # ceil division


@dataclass(frozen=True)
class PowerModel:
    """Technology-scaled power/energy calibration.

    ``tech_nm`` selects the scaling pair from :data:`TECH_NODES`;
    ``clock_ns`` is the platform clock period used to convert
    cycle counts into wall time (100 MHz by default, matching the
    Microblaze configuration the paper's platforms target).
    """

    tech_nm: int = BASE_TECH_NM
    clock_ns: int = 10

    def __post_init__(self) -> None:
        if self.tech_nm not in TECH_NODES:
            known = ", ".join(str(nm) for nm in sorted(TECH_NODES))
            raise PowerError(
                f"unknown technology node {self.tech_nm} nm "
                f"(known: {known})"
            )
        if self.clock_ns < 1:
            raise PowerError(
                f"clock period must be >= 1 ns, got {self.clock_ns}"
            )

    @property
    def dynamic_scale(self) -> Fraction:
        return TECH_NODES[self.tech_nm][0]

    @property
    def static_scale(self) -> Fraction:
        return TECH_NODES[self.tech_nm][1]

    def cache_token(self) -> str:
        """Deterministic token identifying the model in cache keys."""
        return f"tech={self.tech_nm},clk={self.clock_ns}"

    # -- power (microwatts) -------------------------------------------

    def tile_static_uw(self, tile: Tile) -> Fraction:
        """Leakage of one tile's logic and memories."""
        area = tile_area(tile)
        base = (
            STATIC_UW_PER_SLICE * area.slices
            + STATIC_UW_PER_BRAM * area.brams
        )
        return base * self.static_scale

    def tile_dynamic_uw(self, tile: Tile) -> Fraction:
        """Switching power of one fully active tile."""
        uw = NI_DYNAMIC_UW
        if tile.processor is not None:
            uw += MICROBLAZE_DYNAMIC_UW
        if tile.has_ca:
            uw += CA_DYNAMIC_UW
        uw += PERIPHERAL_DYNAMIC_UW * len(tile.peripherals)
        return uw * self.dynamic_scale

    def interconnect_static_uw(self, interconnect: Interconnect) -> Fraction:
        """Leakage of the interconnect as currently allocated."""
        if isinstance(interconnect, FSLInterconnect):
            links = len(interconnect.allocated_connections())
            slices = FSL_LINK_SLICES * max(links, 0)
        elif isinstance(interconnect, SDMNoC):
            slices = (
                noc_router_slices(interconnect.flow_control)
                * interconnect.router_count()
            )
        else:
            slices = 0
        return STATIC_UW_PER_SLICE * slices * self.static_scale

    def interconnect_dynamic_uw(self, interconnect: Interconnect) -> Fraction:
        """Switching power of the interconnect under full load."""
        if isinstance(interconnect, FSLInterconnect):
            links = len(interconnect.allocated_connections())
            uw = FSL_LINK_DYNAMIC_UW * max(links, 0)
        elif isinstance(interconnect, SDMNoC):
            uw = NOC_ROUTER_DYNAMIC_UW * interconnect.router_count()
        else:
            uw = 0
        return uw * self.dynamic_scale

    # -- energy (picojoules) ------------------------------------------

    def word_energy_pj(
        self,
        interconnect: Interconnect,
        src_tile: str,
        dst_tile: str,
    ) -> Fraction:
        """Energy to move one 32-bit word between two tiles.

        FSL links are dedicated point-to-point FIFOs with a flat
        per-word cost; NoC transfers pay packetisation at the network
        interface plus a per-hop term over the XY route length.
        """
        if src_tile == dst_tile:
            return Fraction(0)
        if isinstance(interconnect, SDMNoC):
            hops = interconnect.hop_distance(src_tile, dst_tile)
            base = NOC_INJECTION_PJ_PER_WORD + NOC_HOP_PJ_PER_WORD * hops
        else:
            base = FSL_WORD_PJ
        return base * self.dynamic_scale

    def transfer_energy_pj(
        self,
        interconnect: Interconnect,
        src_tile: str,
        dst_tile: str,
        tokens: int,
        token_size: int,
    ) -> Fraction:
        """Energy for ``tokens`` tokens of ``token_size`` bytes each."""
        words = words_per_token(token_size)
        return (
            self.word_energy_pj(interconnect, src_tile, dst_tile)
            * tokens
            * words
        )


__all__ = [
    "BASE_TECH_NM",
    "TECH_NODES",
    "PowerModel",
    "words_per_token",
]
