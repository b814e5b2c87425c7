"""Differential tests: incremental engine vs. the retained reference.

The incremental dirty-set simulator (:mod:`repro.sdf.simulation`) must be
*observably identical* to the retained full-rescan reference engine
(:mod:`tests.sdf.simulation_reference`): same firing traces (including
order among simultaneous events), same token peaks, same completion
counts, same quiescence verdicts, and exactly the same ``Fraction``
throughput / period / transient from the state-space analysis.  These
tests drive both engines over randomized (seeded, reproducible) SDF
graphs, bindings and static orders and compare everything.
"""

import random
from functools import partial
from math import gcd

import pytest

from repro.exceptions import DeadlockError, ReproError
from repro.sdf.buffers import (
    BufferDistribution,
    add_buffer_edges,
    bufferable_edges,
    minimal_capacity_bound,
)
from repro.sdf.deadlock import is_deadlock_free
from repro.sdf.engine import ThroughputEngine
from repro.sdf.graph import SDFGraph
from repro.sdf.simulation import SelfTimedSimulator
from tests.sdf.simulation_reference import (
    ReferenceSelfTimedSimulator,
    reference_analyze_throughput,
)
from repro.sdf.throughput import analyze_throughput
from tests.sdf.static_orders import derive_static_orders


def random_bounded_graph(rng: random.Random) -> SDFGraph:
    """A random consistent, bounded, usually-live SDF graph.

    Consistency by construction: a repetition vector is drawn first and
    every edge's rates are derived from it (p * q[src] == c * q[dst]).
    Explicit edges then get credit back-edges at the structural liveness
    bound plus random slack; if the result still deadlocks, capacities
    are grown a few times (mirroring sizing phase 1).
    """
    n = rng.randint(2, 6)
    g = SDFGraph(f"rand{rng.randrange(1 << 16)}")
    q = [rng.randint(1, 4) for _ in range(n)]
    for i in range(n):
        g.add_actor(f"a{i}", execution_time=rng.choice((0, 1, 2, 3, 5, 8)))

    def rates(src: int, dst: int):
        m = rng.randint(1, 3)
        g_ = gcd(q[src], q[dst])
        return m * q[dst] // g_, m * q[src] // g_

    edge_id = 0

    def connect(src: int, dst: int, tokens: int) -> None:
        nonlocal edge_id
        p, c = rates(src, dst)
        g.add_edge(
            f"e{edge_id}", f"a{src}", f"a{dst}",
            production=p, consumption=c,
            initial_tokens=tokens,
            token_size=rng.choice((0, 4, 12)),
        )
        edge_id += 1

    for i in range(n - 1):  # the chain
        connect(i, i + 1, rng.randint(0, 2))
    for _ in range(rng.randint(0, 2)):  # extra forward edges
        src = rng.randrange(n - 1)
        dst = rng.randrange(src + 1, n)
        connect(src, dst, rng.randint(0, 2))
    for i in range(n):  # occasional state self-edges
        if rng.random() < 0.3:
            g.add_edge(
                f"self{i}", f"a{i}", f"a{i}",
                production=1, consumption=1,
                initial_tokens=rng.randint(1, 2),
            )

    capacities = {
        e.name: minimal_capacity_bound(e) + rng.randint(0, 3)
        for e in bufferable_edges(g)
    }
    bounded = add_buffer_edges(g, BufferDistribution(capacities))
    for _ in range(4):
        if is_deadlock_free(bounded):
            break
        for name in capacities:
            capacities[name] += max(
                g.edge(name).production, g.edge(name).consumption
            )
        bounded = add_buffer_edges(g, BufferDistribution(capacities))
    return bounded


def random_binding(rng: random.Random, graph: SDFGraph):
    """Randomly bind a subset of actors to one of up to three processors."""
    processor_of = {}
    for actor in graph:
        if rng.random() < 0.7:
            processor_of[actor.name] = f"p{rng.randrange(3)}"
    return processor_of


def assert_same_execution(fast, slow, *, compare_tokens=True):
    """Both engines advanced identically (traces, counters, statistics)."""
    assert fast.now == slow.now
    assert fast.completed == slow.completed
    assert fast.started == slow.started
    assert fast.trace.firings == slow.trace.firings
    assert fast.trace.max_tokens == slow.trace.max_tokens
    assert fast.trace.completed_count == slow.trace.completed_count
    assert fast.ongoing_firings() == slow.ongoing_firings()
    assert fast.is_quiescent() == slow.is_quiescent()
    if compare_tokens:
        assert fast.tokens == slow.tokens


@pytest.mark.parametrize("seed", range(25))
def test_unconstrained_execution_matches_reference(seed):
    rng = random.Random(1000 + seed)
    graph = random_bounded_graph(rng)
    concurrency = rng.choice((1, 2, None))
    fast = SelfTimedSimulator(
        graph, auto_concurrency=concurrency, record_trace=True
    )
    slow = ReferenceSelfTimedSimulator(
        graph, auto_concurrency=concurrency, record_trace=True
    )
    fast.run(max_firings=80)
    slow.run(max_firings=80)
    assert_same_execution(fast, slow)


@pytest.mark.parametrize("seed", range(25))
def test_bound_execution_matches_reference(seed):
    rng = random.Random(2000 + seed)
    graph = random_bounded_graph(rng)
    processor_of = random_binding(rng, graph)
    fast = SelfTimedSimulator(
        graph, processor_of=processor_of, record_trace=True
    )
    slow = ReferenceSelfTimedSimulator(
        graph, processor_of=processor_of, record_trace=True
    )
    fast.run(max_firings=80)
    slow.run(max_firings=80)
    assert_same_execution(fast, slow)


@pytest.mark.parametrize("seed", range(25))
def test_static_order_execution_matches_reference(seed):
    rng = random.Random(3000 + seed)
    graph = random_bounded_graph(rng)
    processor_of = random_binding(rng, graph)
    orders = derive_static_orders(graph, processor_of)
    kwargs = dict(processor_of=processor_of, static_order=orders,
                  record_trace=True)
    fast = SelfTimedSimulator(graph, **kwargs)
    slow = ReferenceSelfTimedSimulator(graph, **kwargs)
    fast.run(max_firings=80)
    slow.run(max_firings=80)
    assert_same_execution(fast, slow)


def _engine_analysis(graph, **kwargs):
    return ThroughputEngine(graph, **kwargs).analyze()


def _both_analyses(graph, **kwargs):
    """Run the engine and the oracle; return (result, result) or
    (error, error).  Results must be bit-identical (period, transient,
    ...), not just equal in throughput."""
    outcomes = []
    for analyze in (_engine_analysis, reference_analyze_throughput):
        try:
            outcomes.append(analyze(graph, **kwargs))
        except ReproError as error:
            outcomes.append(type(error))
    return outcomes


@pytest.mark.parametrize("seed", range(25))
def test_throughput_analysis_matches_reference(seed):
    rng = random.Random(4000 + seed)
    graph = random_bounded_graph(rng)
    fast, slow = _both_analyses(graph, max_iterations=2_000)
    assert fast == slow  # identical ThroughputResult or same error class
    # The one-shot facade adds only the untimed starvation report.
    try:
        one_shot = analyze_throughput(graph, max_iterations=2_000)
    except ReproError as error:
        assert isinstance(slow, type) and type(error) is slow
    else:
        assert one_shot == slow


@pytest.mark.parametrize("seed", range(25))
def test_mapped_throughput_analysis_matches_reference(seed):
    rng = random.Random(5000 + seed)
    graph = random_bounded_graph(rng)
    processor_of = random_binding(rng, graph)
    orders = derive_static_orders(graph, processor_of)
    fast, slow = _both_analyses(
        graph,
        processor_of=processor_of,
        static_order=orders,
        max_iterations=2_000,
    )
    assert fast == slow


@pytest.mark.parametrize("seed", range(10))
def test_data_dependent_times_match_reference(seed):
    rng = random.Random(6000 + seed)
    graph = random_bounded_graph(rng)
    series = {
        a.name: [rng.randint(0, 7) for _ in range(5)] for a in graph
    }

    def exec_time(actor, index):
        values = series[actor]
        return values[index % len(values)]

    fast = SelfTimedSimulator(
        graph,
        execution_time_of={
            a.name: partial(exec_time, a.name) for a in graph
        },
        record_trace=True,
    )
    slow = ReferenceSelfTimedSimulator(
        graph, execution_time_of=exec_time, record_trace=True
    )
    fast.run(max_firings=60)
    slow.run(max_firings=60)
    assert_same_execution(fast, slow)


def test_blocked_static_order_detected_identically():
    g = SDFGraph("blocked")
    g.add_actor("A", execution_time=1)
    g.add_actor("B", execution_time=1)
    g.add_edge("ab", "A", "B")
    g.add_edge("ba", "B", "A", initial_tokens=1)
    kwargs = dict(
        processor_of={"A": "t", "B": "t"},
        static_order={"t": ["B", "A"]},  # B first, but B needs A's token
    )
    with pytest.raises(DeadlockError):
        analyze_throughput(g, **kwargs)
    with pytest.raises(DeadlockError):
        reference_analyze_throughput(g, **kwargs)
