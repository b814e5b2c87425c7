"""Edge-case and stress tests for the SDF core."""

from fractions import Fraction

import pytest

from repro.exceptions import GraphError
from repro.sdf import (
    SDFGraph,
    analyze_throughput,
    is_deadlock_free,
    repetition_vector,
)
from repro.sdf.buffers import BufferDistribution, add_buffer_edges
from tests.sdf.hsdf import to_hsdf
from tests.sdf.mcm import hsdf_throughput


class TestSkewedRates:
    def test_highly_skewed_repetition_vector(self):
        g = SDFGraph("skew")
        g.add_actor("A", execution_time=1)
        g.add_actor("B", execution_time=1)
        g.add_edge("ab", "A", "B", production=97, consumption=89)
        q = repetition_vector(g)
        assert q == {"A": 89, "B": 97}

    def test_skewed_chain_throughput(self):
        g = SDFGraph("skew")
        g.add_actor("A", execution_time=3)
        g.add_actor("B", execution_time=5)
        g.add_edge("ab", "A", "B", production=7, consumption=3)
        bounded = add_buffer_edges(g, BufferDistribution({"ab": 9}))
        result = analyze_throughput(bounded, max_iterations=3000)
        # q = {A: 3, B: 7}: B carries 35 cycles of work per iteration.
        assert result.throughput <= Fraction(1, 35)
        assert result.throughput > 0

    def test_hsdf_size_of_skewed_graph(self):
        g = SDFGraph("skew")
        g.add_actor("A", execution_time=1)
        g.add_actor("B", execution_time=1)
        g.add_edge("ab", "A", "B", production=12, consumption=8)
        hsdf = to_hsdf(g)
        q = repetition_vector(g)
        assert len(hsdf) == q["A"] + q["B"]  # 2 + 3


class TestInitialTokenExtremes:
    def test_large_initial_token_pool(self):
        g = SDFGraph("pool")
        g.add_actor("A", execution_time=5)
        g.add_actor("B", execution_time=5)
        g.add_edge("ab", "A", "B", initial_tokens=100)
        g.add_edge("ba", "B", "A", initial_tokens=100)
        result = analyze_throughput(g)
        # Both actors independently cycle-limited: 1 firing per 5 cycles.
        assert result.throughput == Fraction(1, 5)

    def test_one_token_short_of_a_burst_deadlocks(self):
        """9 tokens against a consumption burst of 10, with the producer
        waiting on the consumer: a classic off-by-one deadlock."""
        g = SDFGraph("burst")
        g.add_actor("A", execution_time=2)
        g.add_actor("B", execution_time=2)
        g.add_edge("ab", "A", "B", production=1, consumption=10,
                   initial_tokens=9)
        g.add_edge("ba", "B", "A", production=10, consumption=1)
        assert not is_deadlock_free(g)
        # One credit on the return edge unblocks the whole cycle.
        g2 = SDFGraph("burst2")
        g2.add_actor("A", execution_time=2)
        g2.add_actor("B", execution_time=2)
        g2.add_edge("ab", "A", "B", production=1, consumption=10,
                    initial_tokens=9)
        g2.add_edge("ba", "B", "A", production=10, consumption=1,
                    initial_tokens=1)
        assert is_deadlock_free(g2)
        assert analyze_throughput(g2).throughput > 0


class TestDegenerateShapes:
    def test_two_parallel_edges_between_same_actors(self):
        g = SDFGraph("parallel")
        g.add_actor("A", execution_time=4)
        g.add_actor("B", execution_time=4)
        g.add_edge("fast", "A", "B", initial_tokens=1)
        g.add_edge("slow", "A", "B")
        g.add_edge("back", "B", "A", initial_tokens=2)
        result = analyze_throughput(g)
        assert result.throughput > 0

    def test_actor_with_many_self_edges(self):
        g = SDFGraph("selfy")
        g.add_actor("A", execution_time=7)
        g.add_edge("s1", "A", "A", initial_tokens=1)
        g.add_edge("s2", "A", "A", initial_tokens=3)
        g.add_edge("s3", "A", "A", initial_tokens=2)
        result = analyze_throughput(g)
        assert result.throughput == Fraction(1, 7)

    def test_long_chain_analyzes(self):
        g = SDFGraph("long")
        previous = None
        for i in range(20):
            g.add_actor(f"n{i}", execution_time=3 + (i % 5))
            if previous is not None:
                g.add_edge(f"e{i}", previous, f"n{i}", token_size=4)
            previous = f"n{i}"
        capacities = {e.name: 2 for e in g.explicit_edges()}
        bounded = add_buffer_edges(g, BufferDistribution(capacities))
        result = analyze_throughput(bounded, max_iterations=3000)
        # Bottleneck: the slowest stage (7 cycles).
        assert result.throughput == Fraction(1, 7)

    def test_wide_fanout_analyzes(self):
        g = SDFGraph("fan")
        g.add_actor("S", execution_time=10)
        capacities = {}
        for i in range(8):
            g.add_actor(f"w{i}", execution_time=8)
            g.add_edge(f"e{i}", "S", f"w{i}", token_size=4)
            capacities[f"e{i}"] = 2
        bounded = add_buffer_edges(g, BufferDistribution(capacities))
        result = analyze_throughput(bounded)
        assert result.throughput == Fraction(1, 10)  # source-limited


class TestEngineCrossChecks:
    def test_engines_agree_on_skewed_ring(self):
        g = SDFGraph("xr")
        g.add_actor("A", execution_time=4)
        g.add_actor("B", execution_time=9)
        g.add_edge("ab", "A", "B", production=5, consumption=2)
        g.add_edge("ba", "B", "A", production=2, consumption=5,
                   initial_tokens=20)
        state_space = analyze_throughput(g, max_iterations=3000).throughput
        mcm_based = hsdf_throughput(to_hsdf(g))
        assert state_space == mcm_based

    def test_engines_agree_with_concurrency_caps(self):
        g = SDFGraph("cap")
        g.add_actor("A", execution_time=10, concurrency=3)
        g.add_actor("B", execution_time=5)
        g.add_edge("ab", "A", "B", initial_tokens=0)
        g.add_edge("ba", "B", "A", initial_tokens=3)
        state_space = analyze_throughput(g).throughput
        mcm_based = hsdf_throughput(to_hsdf(g))
        assert state_space == mcm_based
        # Three overlapping A firings: 3 tokens / 10 cycles... bounded by
        # B at 1/5; the engines agree on whichever binds.
        assert state_space == Fraction(1, 5)
