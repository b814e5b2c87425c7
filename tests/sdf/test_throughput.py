"""Tests for state-space throughput analysis."""

from fractions import Fraction

import pytest

from repro.exceptions import DeadlockError, SimulationError
from repro.sdf import SDFGraph, analyze_throughput
from repro.sdf.buffers import BufferDistribution, add_buffer_edges
from repro.sdf.engine import ThroughputEngine
from tests.sdf.simulation_reference import reference_analyze_throughput
from repro.sdf.throughput import (
    UnboundedExecutionError,
    processing_throughput_bound,
)


def bounded(graph, capacities):
    return add_buffer_edges(graph, BufferDistribution(capacities))


def test_single_actor_with_self_edge():
    g = SDFGraph("loop")
    g.add_actor("A", execution_time=10)
    g.add_edge("selfA", "A", "A", initial_tokens=1)
    result = analyze_throughput(g)
    assert result.throughput == Fraction(1, 10)
    assert result.period == 10
    assert result.iterations_per_period == 1


def test_two_actor_cycle():
    g = SDFGraph("ring")
    g.add_actor("A", execution_time=3)
    g.add_actor("B", execution_time=4)
    g.add_edge("ab", "A", "B", initial_tokens=1)
    g.add_edge("ba", "B", "A")
    # One token circulates: strictly alternating, period 7.
    result = analyze_throughput(g)
    assert result.throughput == Fraction(1, 7)


def test_two_tokens_pipeline_cycle():
    g = SDFGraph("ring2")
    g.add_actor("A", execution_time=3)
    g.add_actor("B", execution_time=4)
    g.add_edge("ab", "A", "B", initial_tokens=2)
    g.add_edge("ba", "B", "A")
    # Two tokens let A and B overlap; B (the slowest) limits: 1 per 4 cycles.
    result = analyze_throughput(g)
    assert result.throughput == Fraction(1, 4)


def test_bounded_pipeline_reaches_bottleneck_rate(two_actor_pipeline):
    g = bounded(two_actor_pipeline, {"p2q": 2})
    result = analyze_throughput(g)
    assert result.throughput == Fraction(1, 7)  # Q is the bottleneck


def test_tight_buffer_slows_pipeline(two_actor_pipeline):
    wide = bounded(two_actor_pipeline, {"p2q": 4})
    narrow = bounded(two_actor_pipeline, {"p2q": 1})
    fast = analyze_throughput(wide)
    slow = analyze_throughput(narrow)
    # Capacity 1 forbids overlap of P and Q: 1 iteration per 12 cycles.
    assert slow.throughput == Fraction(1, 12)
    assert fast.throughput == Fraction(1, 7)
    assert slow.throughput < fast.throughput


def test_figure2_bounded_throughput(figure2_graph):
    g = bounded(figure2_graph, {"a2b": 4, "a2c": 2, "b2c": 4})
    result = analyze_throughput(g)
    # B fires twice (3 cycles each) per iteration and is the bottleneck.
    assert result.throughput == Fraction(1, 6)


def test_figure2_matches_processing_bound(figure2_graph):
    bound = processing_throughput_bound(figure2_graph)
    assert bound == Fraction(1, 6)
    g = bounded(figure2_graph, {"a2b": 4, "a2c": 2, "b2c": 4})
    result = analyze_throughput(g)
    assert result.throughput <= bound


def test_unbounded_pipeline_raises(two_actor_pipeline):
    # P (5) outpaces Q (7): tokens accumulate forever without buffers.
    with pytest.raises(UnboundedExecutionError, match="buffer"):
        analyze_throughput(two_actor_pipeline, max_iterations=50)


def test_deadlocked_graph_raises():
    g = SDFGraph("dead")
    g.add_actor("A", execution_time=1)
    g.add_actor("B", execution_time=1)
    g.add_edge("ab", "A", "B")
    g.add_edge("ba", "B", "A")
    # the one-shot facade keeps the untimed starvation report
    with pytest.raises(DeadlockError, match="starving actors"):
        analyze_throughput(g)


def test_static_order_deadlock_detected():
    """A live graph can still block under a bad static-order schedule."""
    g = SDFGraph("g")
    g.add_actor("A", execution_time=1)
    g.add_actor("B", execution_time=1)
    g.add_edge("ab", "A", "B", initial_tokens=1)
    g.add_edge("ba", "B", "A", initial_tokens=1)
    with pytest.raises(DeadlockError, match="blocked"):
        analyze_throughput(
            g,
            processor_of={"A": "t", "B": "t"},
            static_order={"t": ["A", "A", "B"]},  # 2nd A never ready in time
        )


def test_zero_time_graph_raises():
    g = SDFGraph("zero")
    g.add_actor("A", execution_time=0)
    g.add_edge("selfA", "A", "A", initial_tokens=1)
    with pytest.raises(SimulationError, match="zero"):
        analyze_throughput(g)


def test_multirate_throughput():
    g = SDFGraph("multi")
    g.add_actor("A", execution_time=2)
    g.add_actor("B", execution_time=3)
    g.add_edge("ab", "A", "B", production=2, consumption=3)
    g.add_edge("ba", "B", "A", production=3, consumption=2,
               initial_tokens=6)
    # q = {A: 3, B: 2}.  Both actors carry 6 cycles of work per iteration,
    # but the token dependencies leave unavoidable idle time: the periodic
    # phase completes one iteration per 8 cycles (hand-traced; the MCM
    # oracle independently confirms it in test_hsdf.py).
    result = analyze_throughput(g)
    assert result.throughput == Fraction(1, 8)


def test_multirate_throughput_improves_with_tokens():
    def ring(tokens):
        g = SDFGraph("multi")
        g.add_actor("A", execution_time=2)
        g.add_actor("B", execution_time=3)
        g.add_edge("ab", "A", "B", production=2, consumption=3)
        g.add_edge("ba", "B", "A", production=3, consumption=2,
                   initial_tokens=tokens)
        return g

    tight = analyze_throughput(ring(6)).throughput
    loose = analyze_throughput(ring(12)).throughput
    assert loose >= tight
    # Never above the processing bound of the busiest actor (1/6).
    assert loose <= Fraction(1, 6)


def test_throughput_with_binding_is_slower(figure2_graph):
    """Binding all actors to one processor serializes everything."""
    g = bounded(figure2_graph, {"a2b": 4, "a2c": 2, "b2c": 4})
    unbound = analyze_throughput(g)
    all_on_one = analyze_throughput(
        g,
        processor_of={"A": "t", "B": "t", "C": "t"},
        static_order={"t": ["A", "B", "B", "C"]},
    )
    # Serial: 4 + 3 + 3 + 2 = 12 cycles per iteration.
    assert all_on_one.throughput == Fraction(1, 12)
    assert all_on_one.throughput <= unbound.throughput


def test_result_helpers():
    g = SDFGraph("loop")
    g.add_actor("A", execution_time=8)
    g.add_edge("selfA", "A", "A", initial_tokens=1)
    result = analyze_throughput(g)
    assert result.cycles_per_iteration() == 8
    assert result.iterations_in(80) == 10
    assert result.per_mega_cycle() == pytest.approx(125_000.0)


def test_reference_actor_choice_does_not_matter(figure2_graph):
    g = bounded(figure2_graph, {"a2b": 4, "a2c": 2, "b2c": 4})
    by_a = analyze_throughput(g, reference_actor="A")
    by_b = analyze_throughput(g, reference_actor="B")
    by_c = analyze_throughput(g, reference_actor="C")
    assert by_a.throughput == by_b.throughput == by_c.throughput


def test_processing_bound_rejects_actorless_graph():
    from repro.exceptions import GraphError

    g = SDFGraph("empty")
    with pytest.raises(GraphError, match="no actors"):
        processing_throughput_bound(g)


def test_processing_bound_rejects_all_zero_times():
    g = SDFGraph("zeros")
    g.add_actor("A", execution_time=0)
    g.add_edge("selfA", "A", "A", initial_tokens=1)
    with pytest.raises(SimulationError, match="zero execution time"):
        processing_throughput_bound(g)


class TestReusedEngine:
    """One engine re-analyzes its graph warm (reset re-reads tokens)."""

    def test_matches_oracle_and_one_shot_analysis(self, figure2_graph):
        g = bounded(figure2_graph, {"a2b": 4, "a2c": 2, "b2c": 3})
        engine = ThroughputEngine(g)
        # Field-exact against the oracle and the one-shot analysis.
        assert engine.analyze() == reference_analyze_throughput(g)
        assert engine.analyze() == analyze_throughput(g)

    def test_reanalyze_after_in_place_token_mutation(self):
        """Warm path: mutate credit tokens in place, re-analyze, and get
        exactly what a fresh build-and-analyze produces."""
        from repro.sdf.buffers import retune_buffer_capacity

        g = SDFGraph("ring")
        g.add_actor("A", execution_time=3)
        g.add_actor("B", execution_time=4)
        g.add_edge("ab", "A", "B", token_size=4)
        bounded_graph = bounded(g, {"ab": 1})
        engine = ThroughputEngine(bounded_graph)
        assert engine.analyze().throughput == Fraction(1, 7)
        for capacity in (2, 3, 2, 1):
            retune_buffer_capacity(bounded_graph, "ab", capacity)
            warm = engine.analyze()
            cold = reference_analyze_throughput(bounded(g, {"ab": capacity}))
            assert warm == cold
            assert warm.throughput == analyze_throughput(
                bounded(g, {"ab": capacity})
            ).throughput

    def test_timed_run_detects_blockage(self):
        """The engine runs no untimed pre-check: the state-space run
        itself raises on a dead cycle."""
        g = SDFGraph("dead")
        g.add_actor("A", execution_time=1)
        g.add_actor("B", execution_time=1)
        g.add_edge("ab", "A", "B")
        g.add_edge("ba", "B", "A")  # no initial tokens: deadlock
        engine = ThroughputEngine(g)
        with pytest.raises(DeadlockError, match="blocked after"):
            engine.analyze()

    def test_constructor_budget_is_the_only_budget(self):
        g = SDFGraph("unbounded")
        g.add_actor("P", execution_time=1)
        g.add_actor("Q", execution_time=2)
        g.add_edge("pq", "P", "Q", token_size=4)
        g.add_edge("selfP", "P", "P", initial_tokens=1)
        g.add_edge("selfQ", "Q", "Q", initial_tokens=1)
        engine = ThroughputEngine(g, max_iterations=9)
        with pytest.raises(UnboundedExecutionError, match="within 9 "):
            engine.analyze()
        for knob in ({"max_iterations": 99}, {"check_deadlock": False}):
            with pytest.raises(TypeError):
                engine.analyze(**knob)


def test_deadlock_reported_before_bad_reference_actor():
    """Historic error ordering: the deadlock pre-check fires before the
    reference actor is resolved."""
    g = SDFGraph("dead")
    g.add_actor("A", execution_time=1)
    g.add_actor("B", execution_time=1)
    g.add_edge("ab", "A", "B")
    g.add_edge("ba", "B", "A")  # no initial tokens: deadlock
    with pytest.raises(DeadlockError):
        analyze_throughput(g, reference_actor="ZZZ")


def test_bad_reference_actor_still_rejected(figure2_graph):
    g = bounded(figure2_graph, {"a2b": 4, "a2c": 2, "b2c": 3})
    with pytest.raises(SimulationError, match="reference actor"):
        analyze_throughput(g, reference_actor="ZZZ")
