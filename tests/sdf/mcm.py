"""Maximum cycle mean / maximum cycle ratio analysis: the second oracle.

An analysis independent of state-space exploration: expand the graph to
HSDF (:mod:`tests.sdf.hsdf`) and take ``1 / MCM``.  The differential
suites check the production engine (:mod:`repro.sdf.engine`) against it
in the exact ``Fraction`` wherever HSDF can express the graph: strongly
connected, no binding, no static order, auto-concurrency 1.

For an HSDF graph the self-timed throughput equals ``1 / MCM`` where::

    MCM = max over cycles C of  (sum of execution times on C)
                                / (sum of initial tokens on C)

The implementation uses *cycle ratio iteration*: start from the ratio of an
arbitrary cycle, then repeatedly run a Bellman-Ford positive-cycle test with
edge weights ``t - lambda * d`` (exact rational arithmetic).  Every round
either proves optimality or produces a cycle with a strictly larger exact
ratio; since a finite graph has finitely many cycle ratios the loop
terminates with the exact MCM as a :class:`fractions.Fraction`.

A cycle carrying zero tokens can never fire and means structural deadlock;
:func:`maximum_cycle_mean` raises :class:`~repro.exceptions.DeadlockError`
for it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import DeadlockError, GraphError, SimulationError
from repro.sdf.graph import SDFGraph
from repro.sdf.throughput import ThroughputResult
from tests.sdf.hsdf import to_hsdf

# An edge for ratio analysis: (src, dst, time_weight, token_count)
RatioEdge = Tuple[str, str, int, int]


def _find_zero_token_cycle(
    nodes: Sequence[str], edges: Iterable[RatioEdge]
) -> Optional[List[str]]:
    """Return a cycle using only zero-token edges, if one exists."""
    adjacency: Dict[str, List[str]] = {n: [] for n in nodes}
    for src, dst, _t, d in edges:
        if d == 0:
            adjacency[src].append(dst)

    WHITE, GREY, BLACK = 0, 1, 2
    color = {n: WHITE for n in nodes}
    parent: Dict[str, str] = {}

    for root in nodes:
        if color[root] != WHITE:
            continue
        stack: List[Tuple[str, Iterator[str]]] = []
        color[root] = GREY
        stack.append((root, iter(adjacency[root])))
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    parent[nxt] = node
                    stack.append((nxt, iter(adjacency[nxt])))
                    advanced = True
                    break
                if color[nxt] == GREY:
                    # trace the cycle back from node to nxt
                    cycle = [nxt, node]
                    walker = node
                    while walker != nxt:
                        walker = parent[walker]
                        cycle.append(walker)
                    cycle.reverse()
                    return cycle
            if not advanced:
                color[node] = BLACK
                stack.pop()
    return None


def _positive_cycle(
    nodes: Sequence[str],
    edges: Sequence[RatioEdge],
    ratio: Fraction,
) -> Optional[List[int]]:
    """Bellman-Ford test: find a cycle with ``sum(t) - ratio * sum(d) > 0``.

    Returns the edge indices of such a cycle, or None when every cycle has
    ratio <= ``ratio``.  Longest-path relaxation from a virtual source that
    reaches every node.
    """
    n = len(nodes)
    index_of = {name: i for i, name in enumerate(nodes)}
    dist: List[int] = [0] * n  # virtual source to all nodes
    pred_edge: List[Optional[int]] = [None] * n

    # Scale ``t - (p/q) * d`` by the (positive) denominator q: the
    # integer weights ``q*t - p*d`` order every path sum identically, so
    # the relaxation -- the hot loop of the whole MCM -- runs on plain
    # ints instead of Fractions.
    num, den = ratio.numerator, ratio.denominator
    weights = [den * t - num * d for (_s, _d, t, d) in edges]
    edge_idx = [
        (index_of[src], index_of[dst]) for (src, dst, _t, _d) in edges
    ]

    changed_node: Optional[int] = None
    for _round in range(n):
        changed_node = None
        for i, (u, v) in enumerate(edge_idx):
            candidate = dist[u] + weights[i]
            if candidate > dist[v]:
                dist[v] = candidate
                pred_edge[v] = i
                changed_node = v
        if changed_node is None:
            return None

    # A node relaxed in round n lies on or is reachable from a positive
    # cycle; walk predecessors n steps to land inside the cycle.
    node = changed_node
    for _ in range(n):
        assert pred_edge[node] is not None
        node = edge_idx[pred_edge[node]][0]
    # Collect the cycle's edges.
    cycle_edges: List[int] = []
    start = node
    while True:
        e = pred_edge[node]
        assert e is not None
        cycle_edges.append(e)
        node = edge_idx[e][0]
        if node == start:
            break
    cycle_edges.reverse()
    return cycle_edges


def _cycle_ratio(edges: Sequence[RatioEdge], cycle: Sequence[int]) -> Fraction:
    total_t = sum(edges[i][2] for i in cycle)
    total_d = sum(edges[i][3] for i in cycle)
    if total_d == 0:
        raise DeadlockError(
            "cycle with zero tokens found during ratio iteration"
        )
    return Fraction(total_t, total_d)


def max_cycle_ratio(
    nodes: Sequence[str], edges: Sequence[RatioEdge]
) -> Optional[Fraction]:
    """Exact maximum of (time sum / token sum) over all cycles.

    Returns None when the graph has no cycle at all (throughput is then not
    cycle-limited).  Raises :class:`DeadlockError` when a zero-token cycle
    exists.
    """
    if not nodes:
        return None
    zero_cycle = _find_zero_token_cycle(nodes, edges)
    if zero_cycle is not None:
        raise DeadlockError(
            "zero-token cycle (structural deadlock): "
            + " -> ".join(zero_cycle)
        )

    # Seed with any cycle: run the positive-cycle test with a ratio lower
    # than every possible cycle ratio (-1 works: times are >= 0, so every
    # cycle has ratio >= 0 > -1 ... unless there is no cycle).
    seed = _positive_cycle(nodes, edges, Fraction(-1))
    if seed is None:
        return None
    ratio = _cycle_ratio(edges, seed)
    while True:
        better = _positive_cycle(nodes, edges, ratio)
        if better is None:
            return ratio
        new_ratio = _cycle_ratio(edges, better)
        assert new_ratio > ratio, "cycle ratio iteration failed to progress"
        ratio = new_ratio


def maximum_cycle_mean(hsdf: SDFGraph) -> Optional[Fraction]:
    """MCM of an HSDF graph (cycles weighed by source-actor times).

    Every edge must have unit rates; raises :class:`GraphError` otherwise.
    Returns None for an acyclic graph.
    """
    for edge in hsdf.edges:
        if edge.production != 1 or edge.consumption != 1:
            raise GraphError(
                f"maximum_cycle_mean needs an HSDF graph; edge "
                f"{edge.name!r} has rates {edge.production}/{edge.consumption}"
            )
    nodes = [a.name for a in hsdf]
    edges: List[RatioEdge] = [
        (
            e.src,
            e.dst,
            hsdf.actor(e.src).execution_time,
            e.initial_tokens,
        )
        for e in hsdf.edges
    ]
    return max_cycle_ratio(nodes, edges)


def hsdf_throughput(hsdf: SDFGraph) -> Optional[Fraction]:
    """Self-timed throughput (iterations per cycle) of an HSDF graph.

    ``1 / MCM``; None when the graph is acyclic (unbounded throughput).
    """
    mcm = maximum_cycle_mean(hsdf)
    if mcm is None:
        return None
    if mcm == 0:
        raise GraphError(
            "HSDF graph has only zero-time cycles; throughput is unbounded"
        )
    return 1 / mcm


def analytic_throughput(graph: SDFGraph) -> ThroughputResult:
    """``1 / MCM`` of the HSDF expansion of ``graph``.

    Exact for graphs HSDF can express (sequential actors, no static
    order or time-shared processor, strongly connected); callers are
    responsible for that.  The synthesized periodic phase is the
    smallest one realizing the rate (the state-space analysis may
    report a longer concrete phase), with no transient.
    """
    mcm = maximum_cycle_mean(to_hsdf(graph))
    if mcm is None:
        raise SimulationError(
            f"graph {graph.name!r} has no cycle; throughput is not "
            "cycle-limited"
        )
    if mcm == 0:
        raise SimulationError(
            f"graph {graph.name!r} has only zero-time cycles; "
            "iterations complete in zero time -- throughput is "
            "unbounded"
        )
    throughput = 1 / mcm
    return ThroughputResult(
        throughput=throughput,
        period=throughput.denominator,
        iterations_per_period=throughput.numerator,
        transient_iterations=0,
    )
