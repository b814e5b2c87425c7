"""Synchronous dataflow (SDF) substrate.

This subpackage implements the analysis core that the paper obtains from the
SDF3 tool set [14]: the SDF graph data structure, consistency analysis
(repetition vectors), deadlock detection, self-timed execution, state-space
throughput analysis and buffer-size modelling.

The central type is :class:`~repro.sdf.graph.SDFGraph`.  A quick tour::

    from repro.sdf import SDFGraph

    g = SDFGraph("example")
    g.add_actor("A", execution_time=100)
    g.add_actor("B", execution_time=50)
    g.add_edge("a2b", "A", "B", production=2, consumption=1)
    g.add_edge("self_A", "A", "A", initial_tokens=1)

    from repro.sdf import repetition_vector, analyze_throughput
    q = repetition_vector(g)          # {"A": 1, "B": 2}
    result = analyze_throughput(g)    # iterations per clock cycle
"""

from repro.sdf.graph import Actor, Edge, SDFGraph
from repro.sdf.repetition import is_consistent, repetition_vector
from repro.sdf.deadlock import is_deadlock_free
from repro.sdf.engine import ThroughputEngine
from repro.sdf.throughput import ThroughputResult, analyze_throughput
from repro.sdf.simulation import SelfTimedSimulator, SimulationTrace
from repro.sdf.buffers import (
    BufferDistribution,
    add_buffer_edges,
    minimal_buffer_distribution,
    retune_buffer_capacity,
)
from repro.sdf.latency import (
    first_iteration_latency,
    source_to_sink_latency,
)
from repro.sdf.builders import (
    chain_graph,
    check_well_formed,
    diamond_graph,
    ring_graph,
    split_join_graph,
)

__all__ = [
    "Actor",
    "Edge",
    "SDFGraph",
    "repetition_vector",
    "is_consistent",
    "is_deadlock_free",
    "analyze_throughput",
    "ThroughputEngine",
    "ThroughputResult",
    "SelfTimedSimulator",
    "SimulationTrace",
    "BufferDistribution",
    "add_buffer_edges",
    "minimal_buffer_distribution",
    "retune_buffer_capacity",
    "first_iteration_latency",
    "source_to_sink_latency",
    "chain_graph",
    "check_well_formed",
    "diamond_graph",
    "ring_graph",
    "split_join_graph",
]
