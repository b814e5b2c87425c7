"""Tiered throughput engine: one facade over two exact analyses.

Every throughput guarantee in the flow -- buffer sizing, the mapping
constraint loop, design-space exploration, operating-point library
builds, served flows -- needs the *same* number: the self-timed
throughput of a bounded SDF graph as an exact :class:`fractions.
Fraction`.  Two implementations of that number exist in this package,
with wildly different costs:

* **analytic** -- expand the graph to HSDF (:mod:`repro.sdf.hsdf`) and
  take ``1 / MCM`` (:mod:`repro.sdf.mcm`).  Simulation-free and exact,
  but only expressible when the resource constraints are (see
  :meth:`ThroughputEngine.analytic_decline_reason`);
* **vectorized** -- the state-space analysis
  :meth:`~repro.sdf.simulation.SelfTimedSimulator.run_throughput` on
  the lean path of the one self-timed simulator: integer time,
  preallocated token/credit arrays, no per-event name or trace
  bookkeeping, no ``Fraction`` in the inner loop; the exact
  ``Fraction`` is reconstructed once, at period detection.  Every
  result field (period, transient, ...) is bit-identical to the test
  oracle ``reference_analyze_throughput``
  (``tests/sdf/simulation_reference.py``).

:class:`ThroughputEngine` owns the tier policy.  Whether the analytic
tier *pays* cannot be read off the graph: two graphs with identical
size features can have state spaces of 6 and 900 iterations (the
whole reason the state space is simulated rather than predicted), so
the engine decides adaptively.  When the HSDF transform is tractable and
the binding / static-order constraints allow it, analyze() first runs
the vectorized tier for a probe bounded by the *estimated analytic
cost* (at least :data:`PROBE_ITERATIONS` iterations, stretched by
:data:`PROBE_WORK_FACTOR` for graphs whose HSDF expansion is large
relative to their per-iteration simulation cost): a state space that
recurs within the probe *is* the cheaper exact analysis, and the
engine keeps its result; one that outlives it has already cost about
what the transform would, and the engine escalates to the
simulation-free analytic tier.  A relaxation budget
(:data:`MCM_RELAXATION_FACTOR` x HSDF size) backstops the rare
adversarial expansion where the cycle-ratio iteration itself grinds;
exceeding it falls back to the full vectorized run.  The chosen tier
and the fallback reason are recorded in the
:class:`~repro.sdf.throughput.ThroughputResult`.  This adaptive policy
is the only one: nothing pins a tier.  Tests that need one tier call it
directly -- :func:`analytic_throughput` for the analytic tier,
:meth:`~repro.sdf.simulation.SelfTimedSimulator.run_throughput` for the
state-space tier.

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

Every analysis counts its tier in :mod:`repro.counters`
(``engine.analytic`` / ``engine.vectorized``), which ``GET /v1/healthz``
and :class:`~repro.flow.effort.EffortReport` read.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.counters import count
from repro.exceptions import SimulationError
from repro.sdf.graph import SDFGraph, validate_graph
from repro.sdf.hsdf import to_hsdf
from repro.sdf.mcm import CycleRatioBudgetError, maximum_cycle_mean
from repro.sdf.repetition import repetition_vector
from repro.sdf.simulation import SelfTimedSimulator
from repro.sdf.throughput import ThroughputResult, UnboundedExecutionError

#: HSDF expansion budget: total actor copies (sum of the repetition
#: vector).  Beyond this the quadratic token-dependency scan of the
#: transform costs more than the simulation it replaces.
MAX_HSDF_COPIES = 256
#: HSDF expansion budget: token dependencies examined by the transform
#: (``sum over edges of q[dst] * consumption``).
MAX_HSDF_WORK = 20_000
#: The engine probes the vectorized tier for at least this many iterations
#: before escalating to the analytic tier.  Short state spaces (every
#: observed easy instance recurs within ~14 iterations) finish inside
#: the probe, where simulation is cheaper than the HSDF transform.
PROBE_ITERATIONS = 24
#: The probe is stretched in proportion to the *estimated analytic
#: cost*: the transform + cycle-ratio iteration costs roughly a fixed
#: amount per HSDF unit (actor copies + token dependencies), while one
#: simulated iteration costs roughly a fixed amount per graph unit
#: (actors + edges).  Measured across scenario families the ratio of
#: those two constants is ~30; probing for
#: ``PROBE_WORK_FACTOR * hsdf_units / graph_units`` iterations means
#: escalation only happens once the simulation has already spent about
#: what the analytic tier would cost -- so a misjudged escalation at
#: most doubles the analysis, while a state space that keeps running
#: 10x longer still yields nearly the full analytic win.
PROBE_WORK_FACTOR = 32
#: Relaxation budget for the analytic tier's cycle-ratio iteration,
#: as a multiple of HSDF size (actor copies + dependency edges).
#: Well-behaved instances stay under ~450 relaxations per size unit;
#: adversarial dense multi-rate expansions run into the thousands and
#: are cheaper to simulate.
MCM_RELAXATION_FACTOR = 512


# ----------------------------------------------------------------------
# the facade
# ----------------------------------------------------------------------
def _is_strongly_connected(graph: SDFGraph) -> bool:
    """One SCC containing every actor (self-edges ignored)."""
    actors = [a.name for a in graph]
    if len(actors) <= 1:
        return True
    forward: Dict[str, List[str]] = {a: [] for a in actors}
    backward: Dict[str, List[str]] = {a: [] for a in actors}
    for e in graph.edges:
        if e.src != e.dst:
            forward[e.src].append(e.dst)
            backward[e.dst].append(e.src)

    def reaches_all(adjacency: Dict[str, List[str]]) -> bool:
        seen = {actors[0]}
        stack = [actors[0]]
        while stack:
            for nxt in adjacency[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == len(actors)

    return reaches_all(forward) and reaches_all(backward)


def analytic_throughput(
    graph: SDFGraph, relaxation_factor: Optional[int] = None
) -> ThroughputResult:
    """The analytic tier: ``1 / MCM`` of the HSDF expansion of ``graph``.

    Exact for graphs the engine finds eligible (sequential actors, no
    static order or time-shared processor, strongly connected); callers
    outside the engine are responsible for that.  The expansion is redone per call
    because it embeds the graph's current initial tokens.
    ``relaxation_factor`` bounds the cycle-ratio iteration to that
    multiple of the HSDF size (actor copies + dependency edges) and
    raises :class:`~repro.sdf.mcm.CycleRatioBudgetError` beyond it;
    ``None`` runs it to completion.
    """
    hsdf = to_hsdf(graph)
    max_relaxations = (
        None if relaxation_factor is None
        else relaxation_factor * (len(hsdf) + len(hsdf.edges))
    )
    mcm = maximum_cycle_mean(hsdf, max_relaxations)
    if mcm is None:
        # Unreachable for a strongly connected graph (the sequential
        # actor cycles alone close a loop); kept as a typed error for
        # defense in depth.
        raise SimulationError(
            f"analytic engine found no cycle in {graph.name!r}; "
            "throughput is not cycle-limited"
        )
    if mcm == 0:
        raise SimulationError(
            f"graph {graph.name!r} has only zero-time cycles; "
            "iterations complete in zero time -- throughput is "
            "unbounded"
        )
    throughput = 1 / mcm
    # The analytic tier proves the long-run rate directly; the
    # synthesized periodic phase is the smallest one realizing it
    # (state-space tiers may report a longer concrete phase).
    return ThroughputResult(
        throughput=throughput,
        period=throughput.denominator,
        iterations_per_period=throughput.numerator,
        transient_iterations=0,
        tier="analytic",
    )


class ThroughputEngine:
    """Tier-picking throughput analyzer for one graph structure.

    The two tiers are the analytic HSDF/MCM analysis and the
    state-space run of one :class:`~repro.sdf.simulation.
    SelfTimedSimulator`, built on first use and reset per call.
    Construction validates the graph and resolves the *structural* tier
    policy once (is the analytic tier expressible at all?); the
    adaptive probe in :meth:`analyze` then decides per call whether to
    escalate to it.  Every call reuses the built analysis stack, and
    in-place mutation of ``initial_tokens`` between calls is honoured by
    both tiers (the simulator re-reads tokens on reset; the analytic
    tier re-expands from the live edge objects) -- the buffer-sizing
    warm path and the mapping flow's buffer-growth loop rely on this.

    Parameters mirror :func:`repro.sdf.throughput.analyze_throughput`.
    """

    def __init__(
        self,
        graph: SDFGraph,
        auto_concurrency: Optional[int] = 1,
        processor_of: Optional[Dict[str, str]] = None,
        static_order: Optional[Dict[str, Sequence[str]]] = None,
        reference_actor: Optional[str] = None,
        max_iterations: int = 10_000,
    ) -> None:
        validate_graph(graph)
        self.graph = graph
        self.max_iterations = max_iterations
        self._auto_concurrency = auto_concurrency
        self._processor_of = processor_of
        self._static_order = static_order
        self._reference_actor = reference_actor
        self._q = repetition_vector(graph)
        self._hsdf_units = 0  # set by the eligibility check below
        self._decline = self._analytic_decline_reason()
        self._vector_sim: Optional[SelfTimedSimulator] = None
        self._vector_ref: Optional[Tuple[str, int]] = None

    # -- tier policy ---------------------------------------------------
    def _analytic_decline_reason(self) -> Optional[str]:
        """Why the analytic tier is OFF for this graph, or None."""
        if self._auto_concurrency != 1:
            return (
                "auto-concurrency != 1 (the HSDF transform models "
                "sequential actors)"
            )
        if self._static_order:
            return (
                "static-order schedules are not expressible in the "
                "HSDF transform"
            )
        if self._processor_of:
            members: Dict[str, List[str]] = {}
            for actor, proc in self._processor_of.items():
                members.setdefault(proc, []).append(actor)
            shared = sorted(
                p for p, actors in members.items() if len(actors) > 1
            )
            if shared:
                return (
                    f"processor(s) {', '.join(shared)} time-share "
                    "multiple actors"
                )
            for actor in self._processor_of:
                if self.graph.actor(actor).concurrency not in (None, 1):
                    return (
                        f"binding serializes actor {actor!r} below its "
                        "concurrency cap"
                    )
        if not _is_strongly_connected(self.graph):
            return (
                "graph is not strongly connected; channels without "
                "feedback diverge under self-timed execution"
            )
        copies = sum(self._q.values())
        if copies > MAX_HSDF_COPIES:
            return f"HSDF expansion too large ({copies} actor copies)"
        work = sum(
            self._q[e.dst] * e.consumption for e in self.graph.edges
        )
        if work > MAX_HSDF_WORK:
            return (
                f"HSDF expansion too large ({work} token dependencies)"
            )
        self._hsdf_units = copies + work
        return None

    def _probe_iterations(self) -> int:
        """Probe length scaled to the estimated analytic cost.

        ``_hsdf_units`` estimates the transform + MCM cost;
        ``actors + edges`` estimates the cost of one simulated
        iteration.  See :data:`PROBE_WORK_FACTOR`.
        """
        graph_units = len(self.graph) + len(self.graph.edges)
        return max(
            PROBE_ITERATIONS,
            PROBE_WORK_FACTOR * self._hsdf_units // graph_units,
        )

    @property
    def analytic_decline_reason(self) -> Optional[str]:
        """Why the engine will not use the analytic tier (None: it will)."""
        return self._decline

    # -- analysis ------------------------------------------------------
    def analyze(self) -> ThroughputResult:
        """One throughput analysis from the graph's current tokens.

        There is no untimed liveness pre-check: the timed run itself
        raises :class:`~repro.exceptions.DeadlockError` when the graph
        blocks.  The budget is the constructor's ``max_iterations``.  The
        result carries the ``tier`` that produced it and the
        ``tier_reason``.

        Raises
        ------
        DeadlockError
            If the graph deadlocks (throughput would be 0 after a finite
            run).
        UnboundedExecutionError
            If no periodic phase appears within the iteration budget.
        """
        if self._decline is not None:
            count("engine.vectorized")
            result = self._analyze_vectorized(self.max_iterations)
            return replace(result, tier_reason=self._decline)
        # Adaptive probe: a state space that recurs before the simulation
        # has spent about the analytic tier's estimated cost is cheaper
        # to simulate than to transform; one that does not is exactly
        # where simulation cost can explode.
        probe = min(self._probe_iterations(), self.max_iterations)
        try:
            result = self._analyze_vectorized(probe)
        except UnboundedExecutionError:
            pass
        else:
            count("engine.vectorized")
            return replace(result, tier_reason=(
                f"state space recurred within the {probe}-iteration "
                "probe; simulation is cheaper than the HSDF transform"
            ))
        try:
            result = analytic_throughput(self.graph, MCM_RELAXATION_FACTOR)
        except CycleRatioBudgetError:
            count("engine.vectorized")
            result = self._analyze_vectorized(self.max_iterations)
            return replace(result, tier_reason=(
                "cycle-ratio iteration exceeded its relaxation budget; "
                "fell back to the vectorized simulation"
            ))
        count("engine.analytic")
        return replace(result, tier_reason=(
            f"state space outlived the {probe}-iteration probe"
        ))

    def _analyze_vectorized(self, max_iterations: int) -> ThroughputResult:
        sim = self._vector_sim
        if sim is None:
            # Historic ordering: simulator construction errors surface
            # before the reference-actor check.
            sim = SelfTimedSimulator(
                self.graph,
                auto_concurrency=self._auto_concurrency,
                processor_of=self._processor_of,
                static_order=self._static_order,
            )
            self._vector_sim = sim
        else:
            sim.reset()
        if self._vector_ref is None:
            ref = self._reference_actor or self.graph.actors[0].name
            if ref not in self.graph:
                raise SimulationError(
                    f"reference actor {ref!r} not in graph"
                )
            self._vector_ref = (ref, self._q[ref])
        ref, q_ref = self._vector_ref
        return sim.run_throughput(ref, q_ref, max_iterations)
