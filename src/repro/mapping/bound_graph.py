"""Building the bound analysis graph.

The bound graph merges the application graph with everything the mapping
decided: WCETs of the chosen implementations, bounded buffers for
intra-tile channels, the Fig. 4 communication model for every inter-tile
channel, and the processor binding (including the (de)serialization actors,
which run on the tile PE -- or on its communication assist when present).

Its throughput, computed under the static-order schedules, *is* the flow's
guarantee: MAMPS implements exactly this structure, so the FPGA (here: the
platform simulator) can only be as fast or faster.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from repro.appmodel.implementation import ActorImplementation
from repro.appmodel.model import ApplicationModel
from repro.arch.platform import ArchitectureModel
from repro.comm.model import (
    CommActorNames,
    expand_channel,
    retune_channel_capacities,
)
from repro.comm.serialization import (
    CASerialization,
    PESerialization,
    SerializationModel,
)
from repro.exceptions import MappingError
from repro.mapping.spec import ChannelMapping
from repro.sdf.buffers import BUFFER_EDGE_PREFIX
from repro.sdf.graph import SDFGraph
from repro.sdf.repetition import repetition_vector


def ca_resource_name(tile: str) -> str:
    """Resource name of a tile's communication assist."""
    return f"{tile}__ca"


def serialization_model_for(arch: ArchitectureModel,
                            tile_name: str) -> SerializationModel:
    """The (de)serialization model a tile uses: its CA when present,
    otherwise the software NI library on the PE."""
    tile = arch.tile(tile_name)
    if tile.has_ca:
        ca = tile.communication_assist
        return CASerialization(
            setup_cycles=ca.setup_cycles,
            cycles_per_word=ca.cycles_per_word,
        )
    return PESerialization()


@dataclass
class BoundGraph:
    """The analysis graph plus its resource binding."""

    graph: SDFGraph
    processor_of: Dict[str, str]
    app_actors: Tuple[str, ...]
    comm_names: Dict[str, CommActorNames] = field(default_factory=dict)

    @cached_property
    def repetitions(self) -> Dict[str, int]:
        """The graph's repetition vector, computed on first use.

        Buffer growth (:func:`apply_buffer_capacities`) only retunes
        initial tokens, never rates or structure, so one vector serves
        every round of a mapping run.
        """
        return repetition_vector(self.graph)

    def app_actors_on(self, tile: str) -> Tuple[str, ...]:
        return tuple(
            a for a in self.app_actors if self.processor_of.get(a) == tile
        )

    def tiles(self) -> Tuple[str, ...]:
        seen: List[str] = []
        for actor in self.app_actors:
            tile = self.processor_of[actor]
            if tile not in seen:
                seen.append(tile)
        return tuple(seen)


def _intra_tile_credit_tokens(edge, channel: ChannelMapping) -> int:
    """Initial tokens of an intra-tile channel's ``buf__`` back-edge --
    shared (with validation) by :func:`build_bound_graph` and
    :func:`apply_buffer_capacities` so the warm path cannot drift."""
    if channel.capacity < max(edge.production, edge.consumption,
                              edge.initial_tokens):
        raise MappingError(
            f"intra-tile channel {edge.name!r} has unusable "
            f"capacity {channel.capacity}"
        )
    return channel.capacity - edge.initial_tokens


def build_bound_graph(
    app: ApplicationModel,
    arch: ArchitectureModel,
    binding: Dict[str, str],
    implementations: Dict[str, ActorImplementation],
    channels: Dict[str, ChannelMapping],
    serialization_overrides: Optional[Dict[str, SerializationModel]] = None,
    time_overrides: Optional[Dict[str, int]] = None,
) -> BoundGraph:
    """Construct the bound graph for a mapping.

    ``serialization_overrides`` substitutes a tile's (de)serialization
    model without touching the architecture -- the instrument of the
    Section 6.3 experiment ("the worst-case execution time of the
    (de-)serialization functions was replaced with the execution time of
    the communication assist").

    ``time_overrides`` replaces per-actor execution times (actor name ->
    cycles, *without* the dispatch overhead, which is always added).  This
    is how the "expected" prediction of Fig. 6 is computed: the same bound
    graph, but with execution times measured on the test data instead of
    the WCETs.

    Every application actor's time additionally includes the tile
    scheduler's per-firing dispatch overhead (the static-order lookup +
    wrapper call), so the analysis and the platform simulator charge the
    processor identically.
    """
    overrides = serialization_overrides or {}

    times = {}
    for actor in app.graph:
        impl = implementations.get(actor.name)
        if impl is None:
            raise MappingError(
                f"no implementation chosen for actor {actor.name!r}"
            )
        tile = arch.tile(binding[actor.name])
        dispatch = (
            tile.processor.context_switch_cycles if tile.processor else 0
        )
        base = impl.wcet
        if time_overrides and actor.name in time_overrides:
            base = time_overrides[actor.name]
        times[actor.name] = base + dispatch
    graph = app.graph.with_execution_times(
        times, name=f"{app.graph.name}_bound"
    )

    processor_of: Dict[str, str] = {}
    for actor_name, tile_name in binding.items():
        processor_of[actor_name] = tile_name

    comm_names: Dict[str, CommActorNames] = {}
    for edge in app.graph.explicit_edges():
        channel = channels.get(edge.name)
        if channel is None:
            raise MappingError(f"channel {edge.name!r} was never routed")
        if channel.intra_tile:
            graph.add_edge(
                f"{BUFFER_EDGE_PREFIX}{edge.name}",
                edge.dst,
                edge.src,
                production=edge.consumption,
                consumption=edge.production,
                initial_tokens=_intra_tile_credit_tokens(edge, channel),
                implicit=True,
            )
            continue

        if channel.parameters is None:
            raise MappingError(
                f"inter-tile channel {edge.name!r} has no interconnect "
                "parameters (routing incomplete)"
            )
        src_model = overrides.get(
            channel.src_tile, serialization_model_for(arch, channel.src_tile)
        )
        dst_model = overrides.get(
            channel.dst_tile, serialization_model_for(arch, channel.dst_tile)
        )
        names = expand_channel(
            graph,
            edge.name,
            channel.parameters,
            src_model,
            alpha_src=channel.alpha_src,
            alpha_dst=channel.alpha_dst,
            deserialization=dst_model,
        )
        comm_names[edge.name] = names

        # Bind serialization work to the resource that executes it.
        if src_model.occupies_pe:
            processor_of[names.s1] = channel.src_tile
        else:
            processor_of[names.s1] = ca_resource_name(channel.src_tile)
        dst_resource = (
            channel.dst_tile
            if dst_model.occupies_pe
            else ca_resource_name(channel.dst_tile)
        )
        processor_of[names.d1] = dst_resource
        processor_of[names.d2] = dst_resource

    return BoundGraph(
        graph=graph,
        processor_of=processor_of,
        app_actors=tuple(a.name for a in app.graph),
        comm_names=comm_names,
    )


def apply_buffer_capacities(
    bound: BoundGraph,
    app: ApplicationModel,
    channels: Dict[str, ChannelMapping],
) -> None:
    """Re-point ``bound`` at the channels' current capacities, in place.

    Growing buffers only changes initial token counts -- the capacity of an
    intra-tile channel lives on its ``buf__`` credit back-edge, the alphas
    of an inter-tile channel on the expansion's ``__scredit`` /
    ``__dcredit`` edges -- never the structure of the bound graph.  The
    mapping flow's constraint loop therefore builds the bound graph once
    and calls this per buffer-growth round instead of rebuilding it, and
    the throughput analyzer picks the new counts up on its next reset.
    Capacity validation matches :func:`build_bound_graph`.
    """
    graph = bound.graph
    for edge in app.graph.explicit_edges():
        channel = channels.get(edge.name)
        if channel is None:
            raise MappingError(f"channel {edge.name!r} was never routed")
        if channel.intra_tile:
            graph.edge(
                f"{BUFFER_EDGE_PREFIX}{edge.name}"
            ).initial_tokens = _intra_tile_credit_tokens(edge, channel)
        else:
            retune_channel_capacities(
                graph,
                edge.name,
                production=edge.production,
                consumption=edge.consumption,
                initial_tokens=edge.initial_tokens,
                token_size=edge.token_size,
                alpha_src=channel.alpha_src,
                alpha_dst=channel.alpha_dst,
            )
