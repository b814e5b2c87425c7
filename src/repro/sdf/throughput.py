"""State-space throughput analysis of SDF graphs.

Implements the approach of Ghamarian et al. [3] as used by SDF3: execute the
graph self-timed; because a consistent, deadlock-free, bounded SDF graph has
finitely many execution states, the execution is eventually periodic.  When
the time-normalized state at an iteration boundary recurs, the throughput of
the periodic phase -- and therefore the long-term average throughput -- is::

    iterations in period / period length      [graph iterations per cycle]

The analysis supports processor bindings and static-order schedules through
:meth:`~repro.sdf.simulation.SelfTimedSimulator.run_throughput`, which is
how the mapping flow obtains the *guaranteed* throughput of a mapped
application (the "worst-case analysis" line of Fig. 6).

Boundedness matters: a graph whose channels grow without limit (e.g. a
pipeline without buffer back-edges) never revisits a state.  The analysis
detects this by bounding the explored iterations and raising
:class:`UnboundedExecutionError`; callers should add buffer-size back-edges
(:mod:`repro.sdf.buffers`) first, which is also what any real implementation
does.

Repeated analyses of one graph structure (buffer sizing tries dozens of
initial-token variations of the same bounded graph) should go through
:class:`~repro.sdf.engine.ThroughputEngine`: it validates the graph and
builds the simulator once, and each analysis resets the simulator --
which re-reads initial tokens -- instead of recreating the whole
analysis stack.  :func:`analyze_throughput` is the one-shot convenience
wrapper over it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Sequence

from repro.exceptions import DeadlockError, GraphError, SimulationError
from repro.sdf.deadlock import deadlock_report
from repro.sdf.graph import SDFGraph
from repro.sdf.repetition import repetition_vector


class UnboundedExecutionError(SimulationError):
    """Raised when no periodic phase is found within the iteration budget.

    Almost always means the graph has unbounded channels; add buffer
    back-edges before analyzing.
    """


@dataclass(frozen=True)
class ThroughputResult:
    """Outcome of a throughput analysis.

    Attributes
    ----------
    throughput:
        Graph iterations per clock cycle (exact rational).
    period:
        Length of the periodic phase in cycles.
    iterations_per_period:
        Graph iterations completed in one period.
    transient_iterations:
        Iterations executed before the periodic phase was entered.
    tier:
        Which implementation produced the result: ``vectorized`` for
        :mod:`repro.sdf.engine`; the default, ``reference``, marks
        results of the test oracles (``tests/sdf/``) and of payloads
        stored before the engine existed.  Older payloads may carry
        other values.  Metadata only -- excluded from equality, which
        compares the analysis outcome.
    """

    throughput: Fraction
    period: int
    iterations_per_period: int
    transient_iterations: int
    tier: str = field(default="reference", compare=False)

    def iterations_in(self, cycles: int) -> Fraction:
        """Long-term average iterations completed in ``cycles`` cycles."""
        return self.throughput * cycles

    def cycles_per_iteration(self) -> Fraction:
        if self.throughput == 0:
            raise ZeroDivisionError("zero throughput")
        return 1 / self.throughput

    def per_mega_cycle(self) -> float:
        """Iterations per 10^6 cycles -- the unit of Fig. 6's y-axis
        ("MCUs per MHz per second")."""
        return float(self.throughput * 1_000_000)


def analyze_throughput(
    graph: SDFGraph,
    auto_concurrency: Optional[int] = 1,
    processor_of: Optional[Dict[str, str]] = None,
    static_order: Optional[Dict[str, Sequence[str]]] = None,
    reference_actor: Optional[str] = None,
    max_iterations: int = 10_000,
) -> ThroughputResult:
    """Compute the self-timed throughput of ``graph``.

    Parameters mirror :class:`SelfTimedSimulator`; ``reference_actor``
    selects the actor whose completed firings count iterations (any actor
    gives the same long-term result; default is the first actor).

    One-shot convenience wrapper over
    :class:`~repro.sdf.engine.ThroughputEngine`; construct the engine
    directly when analyzing the same graph structure repeatedly.

    Raises
    ------
    DeadlockError
        If the graph deadlocks (throughput would be 0 after a finite run).
    UnboundedExecutionError
        If no periodic phase appears within ``max_iterations`` iterations.
    """
    from repro.sdf.engine import ThroughputEngine

    engine = ThroughputEngine(
        graph,
        auto_concurrency=auto_concurrency,
        processor_of=processor_of,
        static_order=static_order,
        reference_actor=reference_actor,
        max_iterations=max_iterations,
    )
    # An arbitrary graph gets the untimed starvation report: off a
    # strongly connected graph a dead cycle can show up as an unbounded
    # run rather than a block.
    report = deadlock_report(graph)
    if report is not None:
        raise DeadlockError(report)
    return engine.analyze()


def processing_throughput_bound(graph: SDFGraph) -> Fraction:
    """Structural upper bound on throughput from actor workloads alone.

    With auto-concurrency 1, actor ``a`` needs ``q[a] * t_a`` cycles of its
    own time per iteration, so no schedule can beat
    ``1 / max_a(q[a] * t_a)``.  Useful for sizing platforms before mapping.
    """
    if len(graph) == 0:
        raise GraphError(
            f"graph {graph.name!r} has no actors; the processing bound "
            "is undefined"
        )
    q = repetition_vector(graph)
    worst = max(
        (q[a.name] * a.execution_time for a in graph), default=0
    )
    if worst == 0:
        raise SimulationError(
            "all actors have zero execution time; bound is infinite"
        )
    return Fraction(1, worst)
