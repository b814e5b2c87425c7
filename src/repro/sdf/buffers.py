"""Buffer-size modelling and sizing.

Bounded channel capacities are modelled *inside* the SDF formalism (paper
Section 3: implicit edges "can also be used to model restrictions like
limited buffer sizes"): an edge with capacity ``beta`` gains a back-edge
from consumer to producer carrying ``beta - initial_tokens`` credit tokens.
The producer claims ``production`` credits per firing; the consumer returns
``consumption`` credits per firing.  Throughput analysis of the graph with
back-edges then *includes* the effect of finite buffers, which is what makes
the flow's throughput guarantee valid on the generated platform.

:func:`minimal_buffer_distribution` searches a small total-capacity
distribution that keeps the graph deadlock-free and, optionally, meets a
throughput constraint -- a practical greedy variant of the Pareto-space
exploration in Stuijk's thesis [14].
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, Optional, Tuple

from repro.exceptions import GraphError, ThroughputConstraintError
from repro.sdf.deadlock import is_deadlock_free
from repro.sdf.engine import ThroughputEngine
from repro.sdf.graph import Edge, SDFGraph
from repro.sdf.throughput import ThroughputResult, analyze_throughput

BUFFER_EDGE_PREFIX = "buf__"


@dataclass
class BufferDistribution:
    """Capacities (in tokens) per buffered edge name."""

    capacities: Dict[str, int] = field(default_factory=dict)

    def total_tokens(self) -> int:
        return sum(self.capacities.values())

    def total_bytes(self, graph: SDFGraph) -> int:
        """Memory footprint given per-edge token sizes."""
        return sum(
            cap * graph.edge(name).token_size
            for name, cap in self.capacities.items()
        )

    def __getitem__(self, edge_name: str) -> int:
        return self.capacities[edge_name]

    def __contains__(self, edge_name: str) -> bool:
        return edge_name in self.capacities


def minimal_capacity_bound(edge: Edge) -> int:
    """Smallest capacity that can possibly let both endpoints fire.

    ``p + c - gcd(p, c)`` is the classical liveness lower bound for a
    single edge between two actors; the capacity must additionally hold the
    initial tokens.
    """
    p, c = edge.production, edge.consumption
    bound = p + c - gcd(p, c)
    return max(bound, edge.initial_tokens)


def bufferable_edges(graph: SDFGraph) -> Tuple[Edge, ...]:
    """Edges that get a finite buffer on a platform: explicit inter-actor
    data edges.  Self-edges model state (one memory slot, no flow control)
    and implicit edges are analysis artifacts."""
    return graph.explicit_edges()


def _check_capacity(edge: Edge, capacity: int) -> None:
    """Shared capacity validation of :func:`add_buffer_edges` and
    :func:`retune_buffer_capacity` (one rule set, cold and warm path)."""
    if capacity < edge.initial_tokens:
        raise GraphError(
            f"capacity {capacity} of edge {edge.name!r} cannot hold its "
            f"{edge.initial_tokens} initial token(s)"
        )
    if capacity < max(edge.production, edge.consumption):
        raise GraphError(
            f"capacity {capacity} of edge {edge.name!r} is below a "
            f"single burst (production={edge.production}, "
            f"consumption={edge.consumption}); the graph could never run"
        )


def add_buffer_edges(
    graph: SDFGraph,
    distribution: BufferDistribution,
    name: Optional[str] = None,
) -> SDFGraph:
    """Return a copy of ``graph`` with credit back-edges for each capacity.

    Raises :class:`GraphError` when a capacity cannot hold the edge's
    initial tokens or is smaller than a single production/consumption burst
    (such a buffer could never work).
    """
    bounded = graph.copy(name or f"{graph.name}_bounded")
    for edge_name, capacity in distribution.capacities.items():
        edge = graph.edge(edge_name)
        if edge.is_self_edge:
            raise GraphError(
                f"self-edge {edge_name!r} cannot be buffered (its capacity "
                "is its initial token count)"
            )
        _check_capacity(edge, capacity)
        bounded.add_edge(
            f"{BUFFER_EDGE_PREFIX}{edge_name}",
            edge.dst,
            edge.src,
            production=edge.consumption,
            consumption=edge.production,
            initial_tokens=capacity - edge.initial_tokens,
            token_size=0,
            implicit=True,
        )
    return bounded


def buffer_edge_name(edge_name: str) -> str:
    """Name of the credit back-edge created for ``edge_name``."""
    return f"{BUFFER_EDGE_PREFIX}{edge_name}"


def retune_buffer_capacity(
    bounded: SDFGraph, edge_name: str, capacity: int
) -> None:
    """Re-point one modelled capacity of a bounded graph, in place.

    ``bounded`` must carry the credit back-edge :func:`add_buffer_edges`
    created for ``edge_name``; its initial tokens become
    ``capacity - initial_tokens(edge)``.  This is the warm path of the
    sizing search: one bounded graph is built and then retuned per
    candidate capacity instead of re-copied, and the simulator inside
    :class:`~repro.sdf.engine.ThroughputEngine` picks the new token
    counts up on its next reset.  Validation matches
    :func:`add_buffer_edges`.
    """
    edge = bounded.edge(edge_name)
    _check_capacity(edge, capacity)
    credit = bounded.edge(buffer_edge_name(edge_name))
    credit.initial_tokens = capacity - edge.initial_tokens


def _initial_distribution(graph: SDFGraph) -> BufferDistribution:
    return BufferDistribution(
        {e.name: minimal_capacity_bound(e) for e in bufferable_edges(graph)}
    )


def minimal_buffer_distribution(
    graph: SDFGraph,
    throughput_constraint: Optional[Fraction] = None,
    max_rounds: int = 200,
    step: int = 1,
) -> Tuple[BufferDistribution, ThroughputResult]:
    """Search a small buffer distribution for ``graph``.

    Phase 1 grows capacities from the structural lower bounds until the
    bounded graph is deadlock-free.  Phase 2 (when ``throughput_constraint``
    is given) is a monotone search over capacity: self-timed throughput
    never decreases when a buffer grows, so the smallest sufficient
    *uniform* growth is found by doubling probes plus binary search, and
    each edge is then independently trimmed back (binary search again)
    to the least capacity that still meets the constraint.  Every trial
    is one :class:`~repro.sdf.engine.ThroughputEngine` analysis of the
    in-place retuned bounded graph -- ``O(E * log(rounds))`` analyses
    instead of the historic per-edge-per-round resimulation
    (``O(E * rounds)``).

    Returns the distribution and the throughput analysis of the bounded
    graph.  Raises :class:`ThroughputConstraintError` when the constraint
    cannot be met within ``max_rounds`` uniform growth steps (e.g. it
    exceeds the processing bound of the actors).
    """
    distribution = _initial_distribution(graph)
    if not distribution.capacities:
        # Nothing to buffer (single actor / only self-edges).
        result = analyze_throughput(graph)
        return distribution, result

    # Warm path: build the bounded graph ONCE; every candidate after that
    # only retunes credit-edge initial tokens in place.  The engine below
    # is likewise built once -- it re-reads the mutated tokens per
    # analysis instead of rebuilding the analysis stack.
    bounded = add_buffer_edges(graph, distribution)

    def set_capacity(name: str, capacity: int) -> None:
        distribution.capacities[name] = capacity
        retune_buffer_capacity(bounded, name, capacity)

    # Phase 1: reach deadlock freedom.
    for _ in range(max_rounds):
        if is_deadlock_free(bounded):
            break
        for name in distribution.capacities:
            set_capacity(name, distribution.capacities[name] + step)
    else:
        raise ThroughputConstraintError(
            f"no deadlock-free buffer distribution for {graph.name!r} "
            f"within {max_rounds} rounds; the unbuffered graph likely "
            "deadlocks"
        )

    engine = ThroughputEngine(bounded)
    result = engine.analyze()

    if (
        throughput_constraint is None
        or result.throughput >= throughput_constraint
    ):
        return distribution, result

    # Phase 2: monotone capacity search.  Extra credit tokens can only
    # enable more firings, so every trial point (>= the phase-1
    # distribution everywhere) stays live; for the same reason
    # throughput is monotone non-decreasing along the uniform-growth
    # axis, which is what the doubling probe and both binary searches
    # rely on.
    base = dict(distribution.capacities)

    def try_uniform(extra: int) -> Fraction:
        for name, capacity in base.items():
            set_capacity(name, capacity + extra * step)
        return engine.analyze().throughput

    # 2a: doubling probe for a sufficient uniform growth k <= max_rounds.
    k = 1
    while True:
        k = min(k, max_rounds)
        reached = try_uniform(k)
        if reached >= throughput_constraint:
            break
        if k >= max_rounds:
            raise ThroughputConstraintError(
                f"constraint {throughput_constraint} not met within "
                f"{max_rounds} rounds for {graph.name!r} "
                f"(reached {reached})"
            )
        k *= 2

    # 2b: binary search the smallest sufficient uniform growth in
    # (k/2, k] -- k/2 (and every smaller probe) is known insufficient.
    low, high = k // 2 + 1, k
    while low < high:
        mid = (low + high) // 2
        if try_uniform(mid) >= throughput_constraint:
            high = mid
        else:
            low = mid + 1
    for name, capacity in base.items():
        set_capacity(name, capacity + low * step)

    # 2c: trim each edge back independently (monotone in each edge's
    # capacity with the others held fixed at their current values).
    for name in base:
        trim_low, trim_high = 0, low
        while trim_low < trim_high:
            mid = (trim_low + trim_high) // 2
            set_capacity(name, base[name] + mid * step)
            trial = engine.analyze().throughput
            if trial >= throughput_constraint:
                trim_high = mid
            else:
                trim_low = mid + 1
        set_capacity(name, base[name] + trim_low * step)

    result = engine.analyze()
    return distribution, result


def occupancy_based_capacities(
    graph: SDFGraph,
    max_tokens: Dict[str, int],
    slack: int = 0,
) -> BufferDistribution:
    """Capacities taken from observed channel occupancy plus slack.

    Used by the MAMPS memory sizing: running the *bounded* analysis graph
    records per-edge peaks; the platform allocates exactly those buffers.
    """
    capacities = {}
    for edge in bufferable_edges(graph):
        observed = max_tokens.get(edge.name, 0)
        capacities[edge.name] = max(
            minimal_capacity_bound(edge), observed + slack
        )
    return BufferDistribution(capacities)
