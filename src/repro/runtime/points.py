"""Operating points: precomputed mappings a platform manager can place.

The design-time/run-time split of Weichslgartner et al. (PAPERS.md):
design time produces, per application, a *library* of mapping operating
points -- a Pareto front over (guaranteed throughput, platform cost) --
and run time merely *selects* a stored point that fits the residual
platform.  An :class:`OperatingPoint` therefore carries everything the
run-time side needs without re-running any analysis:

* the full :class:`~repro.mapping.spec.MappingResult` (binding, channel
  capacities, static orders, throughput guarantee);
* the per-tile memory footprint, including the generated runtime layer
  (:data:`~repro.mapping.binding.RUNTIME_INSTRUCTION_BYTES` /
  :data:`~repro.mapping.binding.RUNTIME_DATA_BYTES`), so admission can
  check a candidate tile without touching the application model;
* the per-channel interconnect footprint: hop count and claimed SDM
  wires on the NoC, or one master + one slave FSL port per link;
* ``state_bytes``, the data-memory state a migration must move (the
  SW->HW migration cost model of Sebai et al., PAPERS.md).

Points are computed on *canonical prefix platforms* (``tile0 ..
tile{k-1}`` of the template); admission relocates them onto whichever
real tiles are free.  A relocation is only accepted when every channel
keeps its recorded hop count, which makes the stored channel parameters
-- and therefore the stored throughput guarantee -- transfer *exactly*
(FSL parameters are placement-independent; SDM wires are exclusive, so
other applications cannot degrade the guarantee either).

Both :class:`OperatingPoint` and :class:`OperatingPointLibrary` are
registered artifact codecs (kinds ``operating-point`` and
``operating-point-library``), so libraries persist in any workspace
:class:`~repro.artifacts.store.ArtifactStore` and journal events can
embed points verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from repro.arch.interconnect import FSLInterconnect
from repro.arch.noc import SDMNoC
from repro.arch.platform import ArchitectureModel
from repro.artifacts.schema import register
from repro.comm.params import WORD_BITS
from repro.mapping.binding import (
    RUNTIME_DATA_BYTES,
    RUNTIME_INSTRUCTION_BYTES,
)
from repro.mapping.spec import MappingResult

#: Artifact kind of a single persisted operating point.
POINT_KIND = "operating-point"
#: Artifact kind of a persisted per-application library.
LIBRARY_KIND = "operating-point-library"


@dataclass(frozen=True)
class ChannelFootprint:
    """Interconnect resources one inter-tile channel occupies.

    ``src``/``dst`` name canonical build tiles.  On the SDM NoC the
    channel claims ``wires`` wires on each of ``hops`` links along its
    XY route; on FSL it claims one master port at ``src`` and one slave
    port at ``dst`` (``hops``/``wires`` are zero -- FSL links are
    distance-free).
    """

    edge: str
    src: str
    dst: str
    hops: int = 0
    wires: int = 0


@dataclass
class OperatingPoint:
    """One admissible mapping of an application, fully precomputed."""

    label: str
    #: Canonical build tiles the mapping uses, in template order.
    tiles: Tuple[str, ...]
    interconnect: str  # "fsl" | "noc" | "none"
    throughput: Fraction
    constraint_met: bool
    area_slices: int
    #: Canonical tile -> (instruction bytes, data bytes), runtime
    #: overhead included.
    tile_memory: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    channels: Tuple[ChannelFootprint, ...] = ()
    #: Data-memory state a migration of this point must transfer.
    state_bytes: int = 0
    result: Optional[MappingResult] = None

    @property
    def n_tiles(self) -> int:
        return len(self.tiles)

    def cost_key(self) -> Tuple[int, int, Fraction]:
        """Cheapest-first selection order: tiles, area, then -throughput."""
        return (self.n_tiles, self.area_slices, -self.throughput)


@dataclass
class OperatingPointLibrary:
    """The per-application Pareto front of operating points.

    ``points`` is kept cheapest-first (the order
    :meth:`~repro.flow.dse.ParetoFront.points` produces), which is
    exactly the admission policy's scan order: the first stored point
    that fits the residual platform is the cheapest feasible one.
    """

    app_name: str
    app_fingerprint: str
    constraint: Optional[Fraction] = None
    points: List[OperatingPoint] = field(default_factory=list)

    def eligible(self) -> List[OperatingPoint]:
        """Points an admission may select: constraint-satisfying ones
        (every point, when the application carries no constraint)."""
        if self.constraint is None:
            return list(self.points)
        return [p for p in self.points if p.constraint_met]

    def __len__(self) -> int:
        return len(self.points)


register(POINT_KIND, OperatingPoint)
register(LIBRARY_KIND, OperatingPointLibrary)


# ----------------------------------------------------------------------
# deriving a point from a mapping result
# ----------------------------------------------------------------------
def operating_point_from_result(
    label: str,
    result: MappingResult,
    arch: ArchitectureModel,
    area_slices: int,
) -> OperatingPoint:
    """Project a :class:`MappingResult` into an :class:`OperatingPoint`.

    ``arch`` is the platform the result was computed on: tile order,
    memory capacities and NoC geometry are read from it, never from the
    managed platform the point is later placed on.
    """
    mapping = result.mapping
    used = [
        name for name in arch.tile_names()
        if name in mapping.actor_binding.values()
    ]

    tile_memory: Dict[str, Tuple[int, int]] = {}
    for tile_name in used:
        instruction = RUNTIME_INSTRUCTION_BYTES
        data = RUNTIME_DATA_BYTES
        for actor in mapping.actors_on(tile_name):
            memory = mapping.implementations[actor].metrics.memory
            instruction += memory.instruction_bytes
            data += memory.data_bytes
        tile_memory[tile_name] = (instruction, data)

    fabric = arch.interconnect
    if isinstance(fabric, SDMNoC):
        kind = "noc"
    elif isinstance(fabric, FSLInterconnect):
        kind = "fsl"
    else:
        kind = "none"

    channels: List[ChannelFootprint] = []
    for channel in sorted(
        mapping.inter_tile_channels(), key=lambda c: c.edge
    ):
        hops = wires = 0
        if isinstance(fabric, SDMNoC):
            hops = fabric.hop_distance(channel.src_tile, channel.dst_tile)
            wires = fabric.default_connection_wires
        channels.append(
            ChannelFootprint(
                edge=channel.edge,
                src=channel.src_tile,
                dst=channel.dst_tile,
                hops=hops,
                wires=wires,
            )
        )

    state_bytes = sum(
        impl.metrics.memory.data_bytes
        for impl in mapping.implementations.values()
    )
    return OperatingPoint(
        label=label,
        tiles=tuple(used),
        interconnect=kind,
        throughput=result.guaranteed_throughput,
        constraint_met=result.constraint_met,
        area_slices=area_slices,
        tile_memory=tile_memory,
        channels=tuple(channels),
        state_bytes=state_bytes,
        result=result,
    )


def transfer_cycles(state_bytes: int, wires: int = 0) -> int:
    """Cycles to move ``state_bytes`` over one connection.

    The migration cost model: an FSL link (``wires=0``) moves one 32-bit
    word per cycle; an SDM connection of ``wires`` wires needs
    ``ceil(32 / wires)`` cycles per word.  Word-granular, rounded up.
    """
    words = math.ceil(state_bytes / (WORD_BITS // 8))
    cycles_per_word = 1 if wires < 1 else math.ceil(WORD_BITS / wires)
    return words * cycles_per_word
