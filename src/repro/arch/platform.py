"""The architecture model: tiles + interconnect (the flow's second input).

The model validates the template rules (unique names, at most one master
per peripheral set, NoC placement covers the tiles) and offers the lookups
the mapping flow needs: which PE types exist, which tiles can host which
implementations, and channel-parameter queries through the interconnect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.arch.interconnect import Connection, FSLInterconnect, Interconnect
from repro.arch.noc import SDMNoC
from repro.arch.tile import Tile
from repro.exceptions import ArchitectureError


@dataclass
class ArchitectureModel:
    """A complete platform description.

    ``interconnect`` may be shared by reference; :meth:`fresh` deep-copies
    the allocation state away so mapping attempts do not pollute each other.
    """

    name: str
    tiles: List[Tile] = field(default_factory=list)
    interconnect: Optional[Interconnect] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ArchitectureError("architecture needs a name")
        names = [t.name for t in self.tiles]
        if len(set(names)) != len(names):
            raise ArchitectureError(
                f"duplicate tile names in architecture {self.name!r}"
            )
        self._by_name: Dict[str, Tile] = {t.name: t for t in self.tiles}

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------
    def tile(self, name: str) -> Tile:
        try:
            return self._by_name[name]
        except KeyError:
            raise ArchitectureError(
                f"unknown tile {name!r} in architecture {self.name!r}"
            ) from None

    def tile_names(self) -> Tuple[str, ...]:
        return tuple(t.name for t in self.tiles)

    def processor_tiles(self) -> Tuple[Tile, ...]:
        """Tiles that can run software actors."""
        return tuple(t for t in self.tiles if t.processor is not None)

    def pe_types(self) -> Tuple[str, ...]:
        """Distinct PE type names present in the platform."""
        seen = []
        for tile in self.tiles:
            if tile.processor and tile.processor.name not in seen:
                seen.append(tile.processor.name)
        return tuple(seen)

    def master_tiles(self) -> Tuple[Tile, ...]:
        return tuple(t for t in self.tiles if t.role == "master")

    def validate(self) -> None:
        """Template rules beyond construction-time checks."""
        if not self.tiles:
            raise ArchitectureError(
                f"architecture {self.name!r} has no tiles"
            )
        if self.interconnect is None and len(self.tiles) > 1:
            raise ArchitectureError(
                f"architecture {self.name!r} has {len(self.tiles)} tiles "
                "but no interconnect"
            )
        owned = {}
        for tile in self.tiles:
            for peripheral in tile.peripherals:
                if peripheral.name in owned:
                    raise ArchitectureError(
                        f"peripheral {peripheral.name!r} owned by both "
                        f"{owned[peripheral.name]!r} and {tile.name!r}; "
                        "sharing peripherals breaks predictability "
                        "(Section 4)"
                    )
                owned[peripheral.name] = tile.name
        if isinstance(self.interconnect, SDMNoC):
            for tile in self.tiles:
                self.interconnect.position_of(tile.name)  # raises if absent

    # ------------------------------------------------------------------
    # interconnect helpers
    # ------------------------------------------------------------------
    def connect(self, name: str, src_tile: str, dst_tile: str, **kwargs):
        """Allocate a connection on the interconnect and return its
        channel parameters."""
        if self.interconnect is None:
            raise ArchitectureError(
                f"architecture {self.name!r} has no interconnect"
            )
        self.tile(src_tile)
        self.tile(dst_tile)
        connection = Connection(name=name, src_tile=src_tile,
                                dst_tile=dst_tile)
        return self.interconnect.allocate(connection, **kwargs)

    def reset_interconnect(self) -> None:
        if self.interconnect is not None:
            self.interconnect.release_all()

    def describe(self) -> str:
        parts = [f"architecture {self.name!r}: {len(self.tiles)} tile(s)"]
        for tile in self.tiles:
            extras = []
            if tile.peripherals:
                extras.append(
                    "peripherals=" + ",".join(p.name for p in tile.peripherals)
                )
            if tile.has_ca:
                extras.append("CA")
            suffix = f" ({'; '.join(extras)})" if extras else ""
            pe = tile.pe_type or "hardware IP"
            parts.append(
                f"  {tile.name}: {tile.role} [{pe}], "
                f"{tile.instruction_memory.capacity_bytes // 1024}kB I / "
                f"{tile.data_memory.capacity_bytes // 1024}kB D{suffix}"
            )
        if self.interconnect is not None:
            parts.append(f"  interconnect: {self.interconnect.describe()}")
        return "\n".join(parts)
