"""Tests for maximum cycle mean / cycle ratio analysis."""

from fractions import Fraction

import pytest

from repro.exceptions import DeadlockError, GraphError
from repro.sdf import SDFGraph
from tests.sdf.mcm import hsdf_throughput, max_cycle_ratio, maximum_cycle_mean


def ring(times, tokens_on_back=1):
    g = SDFGraph("ring")
    names = [f"n{i}" for i in range(len(times))]
    for name, t in zip(names, times):
        g.add_actor(name, execution_time=t)
    for i in range(len(names) - 1):
        g.add_edge(f"e{i}", names[i], names[i + 1])
    g.add_edge("back", names[-1], names[0], initial_tokens=tokens_on_back)
    return g


def test_single_self_loop():
    g = SDFGraph("loop")
    g.add_actor("A", execution_time=10)
    g.add_edge("selfA", "A", "A", initial_tokens=1)
    assert maximum_cycle_mean(g) == 10


def test_simple_ring():
    g = ring([3, 4, 5])
    assert maximum_cycle_mean(g) == 12  # (3+4+5)/1


def test_ring_with_more_tokens():
    g = ring([3, 4, 5], tokens_on_back=2)
    assert maximum_cycle_mean(g) == 6  # 12/2


def test_max_over_multiple_cycles():
    g = SDFGraph("two_rings")
    g.add_actor("A", execution_time=10)
    g.add_actor("B", execution_time=1)
    g.add_edge("selfA", "A", "A", initial_tokens=1)  # mean 10
    g.add_edge("ab", "A", "B", initial_tokens=1)
    g.add_edge("ba", "B", "A")  # cycle mean (10+1)/1 = 11
    assert maximum_cycle_mean(g) == 11


def test_token_heavy_cycle_not_critical():
    g = SDFGraph("mix")
    g.add_actor("A", execution_time=6)
    g.add_actor("B", execution_time=6)
    g.add_edge("ab", "A", "B", initial_tokens=3)
    g.add_edge("ba", "B", "A", initial_tokens=3)  # mean 12/6 = 2
    g.add_edge("selfA", "A", "A", initial_tokens=1)  # mean 6 -> critical
    assert maximum_cycle_mean(g) == 6


def test_acyclic_graph_returns_none(two_actor_pipeline):
    assert maximum_cycle_mean(two_actor_pipeline) is None


def test_zero_token_cycle_raises():
    g = SDFGraph("dead")
    g.add_actor("A", execution_time=1)
    g.add_actor("B", execution_time=1)
    g.add_edge("ab", "A", "B")
    g.add_edge("ba", "B", "A")
    with pytest.raises(DeadlockError, match="zero-token cycle"):
        maximum_cycle_mean(g)


def test_multirate_graph_rejected(figure2_graph):
    with pytest.raises(GraphError, match="HSDF"):
        maximum_cycle_mean(figure2_graph)


def test_fractional_result():
    g = ring([3, 4], tokens_on_back=1)
    g.add_edge("extra", "n1", "n0", initial_tokens=2)
    # cycles: (3+4)/1 = 7 via back, (3+4)/2 = 3.5 via extra -> max 7
    assert maximum_cycle_mean(g) == 7


def test_exact_rational_mean():
    edges = [
        ("a", "b", 5, 0),
        ("b", "a", 2, 3),
    ]
    assert max_cycle_ratio(["a", "b"], edges) == Fraction(7, 3)


def test_empty_graph():
    assert max_cycle_ratio([], []) is None


def test_hsdf_throughput_is_reciprocal():
    g = ring([3, 4, 5])
    assert hsdf_throughput(g) == Fraction(1, 12)


def test_parallel_edges_strictest_wins():
    edges = [
        ("a", "a", 4, 1),
        ("a", "a", 4, 2),
    ]
    assert max_cycle_ratio(["a"], edges) == 4


def test_large_ring_exactness():
    times = [7, 11, 13, 17, 19, 23]
    g = ring(times, tokens_on_back=5)
    assert maximum_cycle_mean(g) == Fraction(sum(times), 5)
