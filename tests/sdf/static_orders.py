"""Static orders by the trace-and-sort recipe, on the reference simulator.

The oracle for static-order derivation: run the full-rescan reference
simulator greedily (binding only, no orders) until every scheduled actor
has *started* one iteration's worth of firings, sort the recorded trace
by (start, end), take each actor's first q firings in that order, and
append the firings still in flight in actor order.
"""

from repro.sdf.repetition import repetition_vector
from tests.sdf.simulation_reference import ReferenceSelfTimedSimulator


def derive_static_orders(graph, processor_of, actors=None):
    """Per-processor one-iteration orders of ``actors`` (default: every
    bound actor); processors without such an actor are left out."""
    q = repetition_vector(graph)
    targets = {a: q[a] for a in (processor_of if actors is None else actors)}
    sim = ReferenceSelfTimedSimulator(
        graph, processor_of=processor_of, record_trace=True
    )

    def one_iteration_started(s):
        started = s.started  # a fresh dict per access
        return all(started[a] >= n for a, n in targets.items())

    sim.run(
        stop_when=one_iteration_started,
        max_firings=max(sum(q.values()) * 3, 100_000),
    )
    counted = {a: 0 for a in targets}
    orders = {}
    for firing in sorted(sim.trace.firings, key=lambda f: (f.start, f.end)):
        actor = firing.actor
        if actor not in targets or counted[actor] >= targets[actor]:
            continue
        counted[actor] += 1
        orders.setdefault(processor_of[actor], []).append(actor)
    for actor, needed in targets.items():
        while counted[actor] < needed:
            counted[actor] += 1
            orders.setdefault(processor_of[actor], []).append(actor)
    return {proc: order for proc, order in orders.items() if order}
