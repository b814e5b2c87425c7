"""Tests for SDF -> HSDF conversion."""

from fractions import Fraction

from repro.sdf import SDFGraph, analyze_throughput, repetition_vector
from repro.sdf.buffers import BufferDistribution, add_buffer_edges
from tests.sdf.hsdf import hsdf_copy_name, to_hsdf
from tests.sdf.mcm import hsdf_throughput


def test_copy_counts_match_repetition_vector(figure2_graph):
    hsdf = to_hsdf(figure2_graph)
    q = repetition_vector(figure2_graph)
    for actor in figure2_graph:
        copies = [a for a in hsdf if a.group == actor.name]
        assert len(copies) == q[actor.name]


def test_hsdf_is_homogeneous(figure2_graph):
    hsdf = to_hsdf(figure2_graph)
    for edge in hsdf.edges:
        assert edge.production == 1
        assert edge.consumption == 1


def test_hsdf_repetition_vector_all_ones(figure2_graph):
    hsdf = to_hsdf(figure2_graph)
    assert all(v == 1 for v in repetition_vector(hsdf).values())


def test_execution_times_preserved(figure2_graph):
    hsdf = to_hsdf(figure2_graph)
    assert hsdf.actor(hsdf_copy_name("B", 0)).execution_time == 3
    assert hsdf.actor(hsdf_copy_name("B", 1)).execution_time == 3


def test_unit_rate_graph_unchanged_in_size(two_actor_pipeline):
    hsdf = to_hsdf(two_actor_pipeline)
    assert len(hsdf) == 2


def test_initial_tokens_become_iteration_delays():
    g = SDFGraph("ring")
    g.add_actor("A", execution_time=3)
    g.add_actor("B", execution_time=4)
    g.add_edge("ab", "A", "B", initial_tokens=1)
    g.add_edge("ba", "B", "A")
    hsdf = to_hsdf(g, sequential_actors=False)
    a0, b0 = hsdf_copy_name("A", 0), hsdf_copy_name("B", 0)
    delays = {(e.src, e.dst): e.initial_tokens for e in hsdf.edges}
    assert delays[(a0, b0)] == 1  # B consumes the token A produced last iter
    assert delays[(b0, a0)] == 0


def test_multirate_dependency_structure():
    """A -2-> B with c=1: B#0 and B#1 both depend on A#0's current firing."""
    g = SDFGraph("fanout")
    g.add_actor("A", execution_time=1)
    g.add_actor("B", execution_time=1)
    g.add_edge("ab", "A", "B", production=2, consumption=1)
    hsdf = to_hsdf(g, sequential_actors=False)
    a0 = hsdf_copy_name("A", 0)
    delays = {(e.src, e.dst): e.initial_tokens for e in hsdf.edges}
    assert delays[(a0, hsdf_copy_name("B", 0))] == 0
    assert delays[(a0, hsdf_copy_name("B", 1))] == 0


def test_sequential_chain_added():
    g = SDFGraph("fanout")
    g.add_actor("A", execution_time=1)
    g.add_actor("B", execution_time=1)
    g.add_edge("ab", "A", "B", production=2, consumption=1)
    hsdf = to_hsdf(g, sequential_actors=True)
    b0, b1 = hsdf_copy_name("B", 0), hsdf_copy_name("B", 1)
    delays = {(e.src, e.dst): e.initial_tokens for e in hsdf.edges}
    assert delays[(b0, b1)] == 0  # B#1 after B#0 in the same iteration
    assert delays[(b1, b0)] == 1  # next iteration's B#0 after B#1
    a0 = hsdf_copy_name("A", 0)
    assert delays[(a0, a0)] == 1  # single-copy actors get a self-loop


def test_hsdf_mcm_matches_state_space_throughput(figure2_graph):
    """The two independent throughput engines must agree."""
    distribution = BufferDistribution({"a2b": 4, "a2c": 2, "b2c": 4})
    g = add_buffer_edges(figure2_graph, distribution)
    state_space = analyze_throughput(g).throughput
    mcm_based = hsdf_throughput(to_hsdf(g))
    assert state_space == mcm_based == Fraction(1, 6)


def test_hsdf_mcm_matches_state_space_on_multirate_ring():
    g = SDFGraph("multi")
    g.add_actor("A", execution_time=2)
    g.add_actor("B", execution_time=3)
    g.add_edge("ab", "A", "B", production=2, consumption=3)
    g.add_edge("ba", "B", "A", production=3, consumption=2, initial_tokens=6)
    state_space = analyze_throughput(g).throughput
    mcm_based = hsdf_throughput(to_hsdf(g))
    assert state_space == mcm_based
