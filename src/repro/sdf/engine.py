"""Throughput engine: the state-space analysis, reused across calls.

Every throughput guarantee in the flow -- buffer sizing, the mapping
constraint loop, design-space exploration, operating-point library
builds, served flows -- needs the *same* number: the self-timed
throughput of a bounded SDF graph as an exact :class:`fractions.
Fraction`.  It comes from SDF3's state-space analysis (Ghamarian et
al., see :mod:`repro.sdf.throughput`), run by
:meth:`~repro.sdf.simulation.SelfTimedSimulator.run_throughput` on the
lean path of the one self-timed simulator: integer time, preallocated
token/credit arrays, no per-event name or trace bookkeeping, no
``Fraction`` in the inner loop; the exact ``Fraction`` is reconstructed
once, at period detection.  Every result field (period, transient, ...)
is bit-identical to the test oracle ``reference_analyze_throughput``
(``tests/sdf/simulation_reference.py``).

:class:`ThroughputEngine` serves the buffer-growth loop, which analyzes
one graph structure many times with different initial tokens: it
validates the graph and takes its repetition vector once, builds one
simulator on first use and resets it -- which re-reads the tokens -- on
every call.

Liveness is decided by the timed run alone: :meth:`ThroughputEngine.
analyze` takes no arguments, runs no untimed deadlock pre-check (a
blocked graph raises :class:`~repro.exceptions.DeadlockError` from the
state-space run) and has one iteration budget, the constructor's.
Callers that accept arbitrary graphs and want the untimed starvation
report (:func:`~repro.sdf.throughput.analyze_throughput`) ask
:func:`~repro.sdf.deadlock.deadlock_report` themselves.

Consumers that need raw *stepping* (static-order derivation, the
platform simulator, latency scans) construct the same
:class:`~repro.sdf.simulation.SelfTimedSimulator` directly.

Every analysis counts ``engine.analyses`` in :mod:`repro.counters`,
which ``GET /v1/healthz`` reads.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence

from repro.counters import count
from repro.exceptions import GraphError, SimulationError
from repro.sdf.graph import SDFGraph, validate_graph
from repro.sdf.repetition import repetition_vector
from repro.sdf.simulation import SelfTimedSimulator
from repro.sdf.throughput import ThroughputResult


class ThroughputEngine:
    """The state-space throughput analysis of one graph structure.

    In-place mutation of ``initial_tokens`` between calls is honoured
    (the simulator re-reads tokens on reset) -- the buffer-sizing warm
    path and the mapping flow's buffer-growth loop rely on this.

    Parameters mirror :func:`repro.sdf.throughput.analyze_throughput`;
    ``repetitions`` is the caller's cached repetition vector of this
    very graph (a :class:`~repro.mapping.bound_graph.BoundGraph` caches
    it), so that it is not solved again.  It must name every actor and
    balance every edge with positive entries, else
    :class:`~repro.exceptions.GraphError` is raised: a stale vector would
    give a wrong throughput, and an all-zero or negated one, which
    balances every edge too, an analysis that fails or never ends.
    """

    def __init__(
        self,
        graph: SDFGraph,
        auto_concurrency: Optional[int] = 1,
        processor_of: Optional[Dict[str, str]] = None,
        static_order: Optional[Dict[str, Sequence[str]]] = None,
        reference_actor: Optional[str] = None,
        max_iterations: int = 10_000,
        repetitions: Optional[Mapping[str, int]] = None,
    ) -> None:
        validate_graph(graph)
        self.graph = graph
        self.max_iterations = max_iterations
        self._auto_concurrency = auto_concurrency
        self._processor_of = processor_of
        self._static_order = static_order
        self._reference_actor = reference_actor
        if repetitions is None:
            repetitions = repetition_vector(graph)
        elif set(repetitions) != {a.name for a in graph.actors} or any(
            repetitions[e.src] * e.production
            != repetitions[e.dst] * e.consumption
            for e in graph.edges
        ):
            raise GraphError(
                f"the repetition vector given for {graph.name!r} does not "
                "name its actors or does not balance its edges"
            )
        elif any(q < 1 for q in repetitions.values()):
            raise GraphError(
                f"the repetition vector given for {graph.name!r} has a "
                "non-positive entry"
            )
        self._q = repetitions
        self._sim: Optional[SelfTimedSimulator] = None

    def analyze(self) -> ThroughputResult:
        """One throughput analysis from the graph's current tokens.

        Raises
        ------
        DeadlockError
            If the graph deadlocks (throughput would be 0 after a finite
            run).
        UnboundedExecutionError
            If no periodic phase appears within the iteration budget.
        """
        sim = self._sim
        if sim is None:
            # Simulator construction errors surface before the
            # reference-actor check.
            sim = SelfTimedSimulator(
                self.graph,
                auto_concurrency=self._auto_concurrency,
                processor_of=self._processor_of,
                static_order=self._static_order,
            )
            self._sim = sim
        else:
            sim.reset()
        ref = self._reference_actor or self.graph.actors[0].name
        if ref not in self.graph:
            raise SimulationError(f"reference actor {ref!r} not in graph")
        # Counted once the analysis can run: a rejected engine made none.
        count("engine.analyses")
        return sim.run_throughput(ref, self._q[ref], self.max_iterations)
