"""Mapping data structures.

A :class:`Mapping` is the interchange object between the SDF3 side and the
MAMPS side of the flow: which tile runs which actor (with which
implementation), how each inter-tile channel is routed and parameterized,
which buffer capacities every channel gets, and the static-order schedule of
every tile.  "Buffer distributions, task mapping and static-order schedules
are determined and gathered in the mapping output of SDF3" (Section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from repro.appmodel.implementation import ActorImplementation
from repro.comm.params import ChannelParameters
from repro.exceptions import MappingError
from repro.sdf.throughput import ThroughputResult


@dataclass
class ChannelMapping:
    """How one explicit edge is realized.

    ``intra_tile`` channels stay in the tile's local memory with a plain
    bounded buffer of ``capacity`` tokens.  Inter-tile channels carry
    interconnect ``parameters`` and split their storage into a source-side
    and a destination-side buffer (``alpha_src`` / ``alpha_dst``).
    """

    edge: str
    src_tile: str
    dst_tile: str
    capacity: int = 0
    alpha_src: int = 0
    alpha_dst: int = 0
    parameters: Optional[ChannelParameters] = None

    @property
    def intra_tile(self) -> bool:
        return self.src_tile == self.dst_tile

    def total_buffer_tokens(self) -> int:
        if self.intra_tile:
            return self.capacity
        return self.alpha_src + self.alpha_dst


@dataclass
class Mapping:
    """A complete mapping of an application onto an architecture."""

    application: str
    architecture: str
    actor_binding: Dict[str, str] = field(default_factory=dict)
    implementations: Dict[str, ActorImplementation] = field(
        default_factory=dict
    )
    channels: Dict[str, ChannelMapping] = field(default_factory=dict)
    static_orders: Dict[str, List[str]] = field(default_factory=dict)

    def tile_of(self, actor: str) -> str:
        try:
            return self.actor_binding[actor]
        except KeyError:
            raise MappingError(f"actor {actor!r} is not bound") from None

    def actors_on(self, tile: str) -> Tuple[str, ...]:
        return tuple(
            a for a, t in self.actor_binding.items() if t == tile
        )

    def used_tiles(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for tile in self.actor_binding.values():
            if tile not in seen:
                seen.append(tile)
        return tuple(seen)

    def inter_tile_channels(self) -> Tuple[ChannelMapping, ...]:
        return tuple(
            c for c in self.channels.values() if not c.intra_tile
        )

    def intra_tile_channels(self) -> Tuple[ChannelMapping, ...]:
        return tuple(c for c in self.channels.values() if c.intra_tile)

    def describe(self) -> str:
        lines = [
            f"mapping of {self.application!r} onto {self.architecture!r}:"
        ]
        for tile in self.used_tiles():
            actors = ", ".join(self.actors_on(tile))
            order = self.static_orders.get(tile)
            order_text = f" | order: {' '.join(order)}" if order else ""
            lines.append(f"  {tile}: {actors}{order_text}")
        inter = self.inter_tile_channels()
        lines.append(f"  {len(inter)} inter-tile channel(s):")
        for channel in inter:
            lines.append(
                f"    {channel.edge}: {channel.src_tile} -> "
                f"{channel.dst_tile} (alpha {channel.alpha_src}/"
                f"{channel.alpha_dst})"
            )
        return "\n".join(lines)


@dataclass
class MappingResult:
    """Outcome of the mapping flow.

    ``guaranteed_throughput`` is the SDF3-side worst-case bound computed on
    the bound graph with WCETs -- the value the paper's Fig. 6 plots as the
    "worst-case analysis" line.  ``constraint_met`` reports it against the
    application's requirement.
    """

    mapping: Mapping
    throughput: ThroughputResult
    constraint: Optional[Fraction]
    buffer_growth_rounds: int = 0

    @property
    def guaranteed_throughput(self) -> Fraction:
        return self.throughput.throughput

    @property
    def constraint_met(self) -> bool:
        if self.constraint is None:
            return True
        return self.guaranteed_throughput >= self.constraint
