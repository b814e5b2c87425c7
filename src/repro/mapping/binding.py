"""Actor-to-tile binding.

Greedy list binding in decreasing workload order (heavy actors placed
first, when the platform is still empty enough to balance them), choosing
for each actor the feasible tile with the lowest
:func:`~repro.mapping.costs.binding_cost`.  Feasibility covers:

* the tile has a processor and an implementation exists for its PE type;
* instruction + data memory of the tile still fit all bound actors plus
  the scheduling/communication layer.

The binder also records the chosen implementation per actor, which is how
heterogeneous platforms automatically select "the correct implementation"
(Section 7).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.appmodel.implementation import ActorImplementation
from repro.appmodel.model import ApplicationModel
from repro.arch.platform import ArchitectureModel
from repro.exceptions import MappingError
from repro.mapping.costs import CostWeights, _binding_cost
from repro.sdf.repetition import repetition_vector

#: Instruction-memory footprint of the generated scheduler + communication
#: libraries on every used tile (the "template project" of Section 5.2).
RUNTIME_INSTRUCTION_BYTES = 12 * 1024
#: Data-memory footprint of the same runtime layer (schedule table, NI
#: bookkeeping, stacks).
RUNTIME_DATA_BYTES = 4 * 1024


def _memory_fits(
    app: ApplicationModel,
    arch: ArchitectureModel,
    tile_name: str,
    actors: List[str],
    implementations: Dict[str, ActorImplementation],
) -> bool:
    tile = arch.tile(tile_name)
    instruction = RUNTIME_INSTRUCTION_BYTES
    data = RUNTIME_DATA_BYTES
    for actor in actors:
        memory = implementations[actor].metrics.memory
        instruction += memory.instruction_bytes
        data += memory.data_bytes
    return (
        instruction <= tile.instruction_memory.capacity_bytes
        and data <= tile.data_memory.capacity_bytes
    )


def bind_actors(
    app: ApplicationModel,
    arch: ArchitectureModel,
    weights: Optional[CostWeights] = None,
    fixed: Optional[Dict[str, str]] = None,
) -> Tuple[Dict[str, str], Dict[str, ActorImplementation]]:
    """Bind every actor of ``app`` to a tile of ``arch``.

    ``fixed`` pins selected actors to tiles up front (e.g. an actor that
    needs the master tile's peripherals for file I/O).

    Returns ``(actor -> tile name, actor -> chosen implementation)``.
    Raises :class:`MappingError` when some actor fits nowhere.
    """
    app.validate()
    arch.validate()
    q = repetition_vector(app.graph)

    # Heavy actors first: workload = q[a] * best-case WCET.
    def workload(actor_name: str) -> int:
        wcets = [i.wcet for i in app.implementations_of(actor_name)]
        return q[actor_name] * min(wcets)

    order = sorted(
        (a.name for a in app.graph), key=workload, reverse=True
    )
    # Pinned actors go first so their load influences later choices.
    if fixed:
        order.sort(key=lambda a: a not in fixed)

    binding: Dict[str, str] = {}
    implementations: Dict[str, ActorImplementation] = {}
    load: Dict[str, int] = {}
    memory_used: Dict[str, int] = {}

    for actor in order:
        candidates = []
        for tile in arch.processor_tiles():
            impl = app.implementation_for(actor, tile.pe_type)
            if impl is None:
                continue
            if fixed and actor in fixed and tile.name != fixed[actor]:
                continue
            trial_actors = list(
                a for a, t in binding.items() if t == tile.name
            ) + [actor]
            trial_impls = dict(implementations)
            trial_impls[actor] = impl
            if not _memory_fits(app, arch, tile.name, trial_actors,
                                trial_impls):
                continue
            cost = _binding_cost(
                app, arch, q, actor, tile.name, tile.pe_type,
                binding, load, memory_used, weights,
            )
            candidates.append((cost, tile.name, impl))
        if not candidates:
            reason = (
                f"pinned to {fixed[actor]!r} but infeasible there"
                if fixed and actor in fixed
                else "no tile offers a matching PE type with enough memory"
            )
            raise MappingError(
                f"actor {actor!r} cannot be bound: {reason}"
            )
        candidates.sort(key=lambda item: (item[0], item[1]))
        cost, tile_name, impl = candidates[0]
        binding[actor] = tile_name
        implementations[actor] = impl
        load[tile_name] = load.get(tile_name, 0) + q[actor] * impl.wcet
        memory_used[tile_name] = (
            memory_used.get(tile_name, 0) + impl.metrics.memory.total_bytes
        )

    return binding, implementations


def tile_loads(
    app: ApplicationModel, binding: Dict[str, str],
    implementations: Dict[str, ActorImplementation],
) -> Dict[str, int]:
    """Cycles of actor work per graph iteration, per tile."""
    q = repetition_vector(app.graph)
    loads: Dict[str, int] = {}
    for actor, tile in binding.items():
        loads[tile] = loads.get(tile, 0) + (
            q[actor] * implementations[actor].wcet
        )
    return loads
