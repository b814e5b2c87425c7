"""Each throughput-engine tier, called directly.

``ThroughputEngine`` picks its tier adaptively and offers no way to pin
one.  Tests that must exercise a single tier make that tier's call
themselves: :func:`repro.sdf.engine.analytic_throughput` for the
analytic tier, :func:`simulated_throughput` for the state-space tier.
"""

from repro.sdf.repetition import repetition_vector
from repro.sdf.simulation import SelfTimedSimulator


def simulated_throughput(
    graph,
    auto_concurrency=1,
    processor_of=None,
    static_order=None,
    reference_actor=None,
    max_iterations=10_000,
):
    """The state-space tier: the same ``run_throughput`` call the engine
    makes, without its deadlock pre-check or adaptive probe."""
    ref = reference_actor or graph.actors[0].name
    sim = SelfTimedSimulator(
        graph,
        auto_concurrency=auto_concurrency,
        processor_of=processor_of,
        static_order=static_order,
    )
    return sim.run_throughput(ref, repetition_vector(graph)[ref],
                              max_iterations)
