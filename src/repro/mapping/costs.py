"""Generic binding cost functions.

Section 5.1: "SDF3 uses generic cost functions to steer the binding of the
application to the architecture based on; processing, memory usage,
communication, and latency."  :func:`binding_cost` scores placing one actor
on one tile given the partial binding built so far; the binder greedily
minimizes it.  All terms are normalized to comparable magnitudes so the
default weights behave sensibly; weights allow callers to bias the search
(e.g. memory-tight platforms).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.appmodel.model import ApplicationModel
from repro.arch.platform import ArchitectureModel
from repro.arch.noc import SDMNoC
from repro.sdf.repetition import repetition_vector


@dataclass(frozen=True)
class CostWeights:
    """Relative importance of the four cost dimensions."""

    processing: float = 1.0
    memory: float = 0.3
    communication: float = 1.0
    latency: float = 0.3


def _processing_term(
    app: ApplicationModel,
    q: Dict[str, int],
    actor: str,
    tile_name: str,
    pe_type: str,
    load: Dict[str, int],
) -> float:
    """Projected tile load (cycles per graph iteration) after placing the
    actor, normalized by the heaviest single actor workload."""
    wcet = app.wcet(actor, pe_type)
    new_load = load.get(tile_name, 0) + q[actor] * wcet
    heaviest = max(
        q[a.name] * impl.wcet
        for a in app.graph
        for impl in app.implementations_of(a.name)
    )
    return new_load / max(heaviest, 1)


def _memory_term(
    app: ApplicationModel,
    arch: ArchitectureModel,
    actor: str,
    tile_name: str,
    pe_type: str,
    memory_used: Dict[str, int],
) -> float:
    """Projected memory utilisation of the tile (0..1+)."""
    impl = app.implementation_for(actor, pe_type)
    tile = arch.tile(tile_name)
    used = memory_used.get(tile_name, 0) + impl.metrics.memory.total_bytes
    return used / max(tile.memory_capacity, 1)


def _communication_term(
    app: ApplicationModel,
    q: Dict[str, int],
    actor: str,
    tile_name: str,
    binding: Dict[str, str],
) -> float:
    """Bytes per iteration that would cross the interconnect, relative to
    the actor's total traffic (0 = all neighbours co-located)."""
    crossing = 0
    total = 0
    for edge in app.graph.explicit_edges():
        if actor not in (edge.src, edge.dst):
            continue
        other = edge.dst if edge.src == actor else edge.src
        bytes_per_iteration = (
            q[edge.src] * edge.production * edge.token_size
        )
        total += bytes_per_iteration
        other_tile = binding.get(other)
        if other_tile is not None and other_tile != tile_name:
            crossing += bytes_per_iteration
    if total == 0:
        return 0.0
    return crossing / total


def _latency_term(
    arch: ArchitectureModel,
    app: ApplicationModel,
    actor: str,
    tile_name: str,
    binding: Dict[str, str],
) -> float:
    """Average hop distance to already-bound communication partners
    (NoC only; FSL links are distance-independent)."""
    noc = arch.interconnect if isinstance(arch.interconnect, SDMNoC) else None
    if noc is None:
        return 0.0
    distances = []
    for edge in app.graph.explicit_edges():
        if actor not in (edge.src, edge.dst):
            continue
        other = edge.dst if edge.src == actor else edge.src
        other_tile = binding.get(other)
        if other_tile is not None and other_tile != tile_name:
            distances.append(noc.hop_distance(tile_name, other_tile))
    if not distances:
        return 0.0
    diameter = max(noc.columns + noc.rows - 2, 1)
    return (sum(distances) / len(distances)) / diameter


def binding_cost(
    app: ApplicationModel,
    arch: ArchitectureModel,
    actor: str,
    tile_name: str,
    pe_type: str,
    binding: Dict[str, str],
    load: Dict[str, int],
    memory_used: Dict[str, int],
    weights: Optional[CostWeights] = None,
) -> float:
    """Cost of binding ``actor`` to ``tile_name`` given the partial state.

    ``binding`` maps already-placed actors to tiles; ``load`` and
    ``memory_used`` track per-tile cycles-per-iteration and bytes.
    """
    return _binding_cost(
        app, arch, repetition_vector(app.graph), actor, tile_name,
        pe_type, binding, load, memory_used, weights,
    )


def _binding_cost(
    app: ApplicationModel,
    arch: ArchitectureModel,
    q: Dict[str, int],
    actor: str,
    tile_name: str,
    pe_type: str,
    binding: Dict[str, str],
    load: Dict[str, int],
    memory_used: Dict[str, int],
    weights: Optional[CostWeights],
) -> float:
    """:func:`binding_cost` under the application's repetition vector
    ``q``, which a binder computes once for all its trials."""
    w = weights or CostWeights()
    return (
        w.processing
        * _processing_term(app, q, actor, tile_name, pe_type, load)
        + w.memory
        * _memory_term(app, arch, actor, tile_name, pe_type, memory_used)
        + w.communication
        * _communication_term(app, q, actor, tile_name, binding)
        + w.latency * _latency_term(arch, app, actor, tile_name, binding)
    )
