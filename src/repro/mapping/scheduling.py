"""Static-order schedule construction.

MAMPS tiles run a static-order scheduler -- "a lookup table" (Section 6.3).
The orders are derived the SDF3 way: execute the bound graph self-timed
under the resource binding (greedy, no orders yet) for one iteration and
record, per tile, the order in which application actors fire.  List
scheduling via simulation inherits all data dependencies, so the recorded
order is guaranteed executable; fixing it afterwards can only delay firings
relative to the greedy run, and the subsequent throughput analysis of the
ordered graph provides the actual guarantee.

The run is the shared :class:`~repro.sdf.simulation.SelfTimedSimulator`'s
countdown loop, :meth:`~repro.sdf.simulation.SelfTimedSimulator.run_until`:
it stops once every application actor has completed its repetition count,
and each tile's order is the completion order of its application firings
as the loop counts them down, capped at the repetition count of each
actor.  A tile executes one firing at a time, so this is its start order;
the two can differ only among zero-duration firings in flight together,
where completion order follows start order.  No trace is kept, so the
unbound communication actors fire by arithmetic.
"""

from __future__ import annotations

from typing import Dict, List

from repro.exceptions import DeadlockError
from repro.mapping.bound_graph import BoundGraph
from repro.sdf.simulation import SelfTimedSimulator


def build_static_orders(bound: BoundGraph) -> Dict[str, List[str]]:
    """Derive one-iteration static orders for every tile of ``bound``.

    Returns tile name -> cyclic actor order (length = sum of repetition
    counts of the tile's application actors).  Raises
    :class:`DeadlockError` when the greedy execution cannot complete an
    iteration (usually: buffers too small), so the flow can grow buffers
    and retry.
    """
    q = bound.repetitions
    remaining = {a: q[a] for a in bound.app_actors}
    tile_of = bound.processor_of
    sim = SelfTimedSimulator(bound.graph, processor_of=tile_of)
    completions: List[str] = []
    # Raises DeadlockError when the greedy execution blocks first.
    sim.run_until(
        remaining, max(sum(q.values()) * 3, 100_000), completions
    )
    if len(completions) < sum(remaining.values()):
        raise DeadlockError(
            f"greedy execution of {bound.graph.name!r} could not "
            "complete one iteration within its step budget while "
            "deriving static orders"
        )
    orders: Dict[str, List[str]] = {tile: [] for tile in bound.tiles()}
    for actor in completions:
        orders[tile_of[actor]].append(actor)
    return orders
