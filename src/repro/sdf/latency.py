"""Latency analysis of SDF graphs.

Besides throughput, SDF3 reports latency, and the binder's generic cost
functions weigh it (Section 5.1).  Two notions are provided:

* :func:`first_iteration_latency` -- the makespan of the very first graph
  iteration from a cold start (start-up latency of the platform);
* :func:`source_to_sink_latency` -- in the periodic regime, the time from
  the *start* of iteration *i*'s first source firing to the *end* of the
  same iteration's last sink firing (how long one input takes to flow
  through the pipeline, accounting for pipelining overlap).

Both execute the same self-timed semantics as the throughput analysis, so
latency numbers are consistent with the throughput guarantee when run on
the bound graph with its static orders.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.exceptions import DeadlockError, SimulationError
from repro.sdf.graph import SDFGraph
from repro.sdf.repetition import repetition_vector
from repro.sdf.simulation import SelfTimedSimulator


def first_iteration_latency(
    graph: SDFGraph,
    auto_concurrency: Optional[int] = 1,
    processor_of: Optional[Dict[str, str]] = None,
    static_order: Optional[Dict[str, Sequence[str]]] = None,
    max_firings: int = 100_000,
) -> int:
    """Completion time of the first full iteration, from time 0."""
    q = repetition_vector(graph)
    sim = SelfTimedSimulator(
        graph,
        auto_concurrency=auto_concurrency,
        processor_of=processor_of,
        static_order=static_order,
    )

    def iteration_done(s: SelfTimedSimulator) -> bool:
        completed = s.completed
        return all(completed[a] >= q[a] for a in completed)

    sim.run(stop_when=iteration_done, max_firings=max_firings)
    if not iteration_done(sim):
        raise DeadlockError(
            f"graph {graph.name!r} never completes its first iteration"
        )
    return sim.now


def source_to_sink_latency(
    graph: SDFGraph,
    source: str,
    sink: str,
    iterations: int = 10,
    warmup: int = 3,
    auto_concurrency: Optional[int] = 1,
    processor_of: Optional[Dict[str, str]] = None,
    static_order: Optional[Dict[str, Sequence[str]]] = None,
    max_firings: int = 500_000,
) -> int:
    """Worst observed iteration latency in the periodic regime.

    Iteration *i*'s latency = (end of sink firing ``(i+1)*q[sink]-1``)
    minus (start of source firing ``i*q[source]``).  The first ``warmup``
    iterations are skipped; the maximum over the next ``iterations`` is
    returned -- in the periodic regime this is the steady per-input
    latency.  Raises :class:`~repro.exceptions.SimulationError` for a
    negative ``warmup`` or fewer than one measured iteration.
    """
    if iterations < 1 or warmup < 0:
        raise SimulationError(
            f"need iterations >= 1 and warmup >= 0, got {iterations} and "
            f"{warmup}"
        )
    q = repetition_vector(graph)
    sim = SelfTimedSimulator(
        graph,
        auto_concurrency=auto_concurrency,
        processor_of=processor_of,
        static_order=static_order,
        record_trace=True,
    )
    if source not in graph or sink not in graph:
        raise SimulationError(
            f"source {source!r} or sink {sink!r} not in graph"
        )
    total = warmup + iterations

    def enough(s: SelfTimedSimulator) -> bool:
        return (
            s.completed_of(source) >= total * q[source]
            and s.completed_of(sink) >= total * q[sink]
        )

    sim.run(stop_when=enough, max_firings=max_firings)
    if not enough(sim):
        raise DeadlockError(
            f"graph {graph.name!r} stalled before completing "
            f"{total} iterations"
        )

    source_starts: List[int] = sorted(
        f.start for f in sim.trace.firings if f.actor == source
    )
    sink_ends: List[int] = sorted(
        f.end for f in sim.trace.firings if f.actor == sink
    )
    worst = 0
    for i in range(warmup, total):
        begin = source_starts[i * q[source]]
        end = sink_ends[(i + 1) * q[sink] - 1]
        worst = max(worst, end - begin)
    return worst
