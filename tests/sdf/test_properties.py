"""Property-based tests for the SDF analysis core.

Random consistent graphs are built *from* a random repetition vector, which
guarantees consistency by construction; rings carry one iteration's worth of
initial tokens, which guarantees liveness.  On these graphs the fundamental
invariants must hold: balance equations, minimality, agreement of the two
independent throughput engines, conservativeness of analysis vs. simulation,
and non-negativity of channel fills.
"""

from fractions import Fraction
from math import gcd

from hypothesis import given, settings, strategies as st

from repro.sdf import (
    SDFGraph,
    analyze_throughput,
    is_deadlock_free,
    repetition_vector,
)
from repro.sdf.simulation import SelfTimedSimulator
from tests.sdf.hsdf import to_hsdf
from tests.sdf.mcm import hsdf_throughput


@st.composite
def consistent_ring_graphs(draw):
    """Strongly-connected consistent SDF graphs (a multirate ring plus
    optional chords), live by construction."""
    n = draw(st.integers(min_value=1, max_value=4))
    q = [draw(st.integers(min_value=1, max_value=3)) for _ in range(n)]
    times = [draw(st.integers(min_value=1, max_value=9)) for _ in range(n)]
    scale = [draw(st.integers(min_value=1, max_value=2)) for _ in range(n)]

    g = SDFGraph("random_ring")
    for i in range(n):
        g.add_actor(f"a{i}", execution_time=times[i])

    def add(name, src, dst, s, tokens_for_iteration):
        """Edge with rates consistent with q, optionally pre-loaded with one
        iteration of tokens."""
        shared = gcd(q[src], q[dst])
        production = q[dst] // shared * s
        consumption = q[src] // shared * s
        initial = q[dst] * consumption if tokens_for_iteration else 0
        g.add_edge(
            name,
            f"a{src}",
            f"a{dst}",
            production=production,
            consumption=consumption,
            initial_tokens=initial,
        )

    if n == 1:
        g.add_edge("self0", "a0", "a0", initial_tokens=1)
    else:
        for i in range(n):
            j = (i + 1) % n
            # Tokens only on the closing edge keep the ring a real cycle.
            add(f"ring{i}", i, j, scale[i], tokens_for_iteration=(j == 0))
        n_chords = draw(st.integers(min_value=0, max_value=2))
        for k in range(n_chords):
            src = draw(st.integers(min_value=0, max_value=n - 1))
            dst = draw(st.integers(min_value=0, max_value=n - 1))
            if src == dst:
                continue
            # Chords are forward shortcuts; give them a full iteration of
            # tokens so they never introduce deadlock.
            add(f"chord{k}", src, dst, 1, tokens_for_iteration=True)
    return g


@given(consistent_ring_graphs())
@settings(max_examples=60, deadline=None)
def test_repetition_vector_satisfies_balance_equations(graph):
    q = repetition_vector(graph)
    for edge in graph.edges:
        assert q[edge.src] * edge.production == q[edge.dst] * edge.consumption


@given(consistent_ring_graphs())
@settings(max_examples=60, deadline=None)
def test_repetition_vector_is_minimal(graph):
    q = repetition_vector(graph)
    overall = 0
    for value in q.values():
        overall = gcd(overall, value)
    assert overall == 1


@given(consistent_ring_graphs())
@settings(max_examples=40, deadline=None)
def test_ring_graphs_are_live(graph):
    assert is_deadlock_free(graph)


@given(consistent_ring_graphs())
@settings(max_examples=30, deadline=None)
def test_throughput_engines_agree(graph):
    """State-space analysis and HSDF/MCM analysis are independent
    implementations; they must give identical exact throughput."""
    state_space = analyze_throughput(graph, max_iterations=2000).throughput
    mcm_based = hsdf_throughput(to_hsdf(graph))
    assert mcm_based == state_space


@given(consistent_ring_graphs())
@settings(max_examples=30, deadline=None)
def test_hsdf_expansion_counts(graph):
    q = repetition_vector(graph)
    hsdf = to_hsdf(graph)
    assert len(hsdf) == sum(q.values())
    assert all(v == 1 for v in repetition_vector(hsdf).values())


@given(consistent_ring_graphs())
@settings(max_examples=40, deadline=None)
def test_tokens_never_negative_during_execution(graph):
    sim = SelfTimedSimulator(graph)
    for _ in range(200):
        if not sim.step():
            break
        assert all(v >= 0 for v in sim.tokens.values())


@given(consistent_ring_graphs())
@settings(max_examples=20, deadline=None)
def test_long_run_rate_matches_analysis(graph):
    """Simulated long-run iteration rate converges to the analyzed value."""
    result = analyze_throughput(graph, max_iterations=2000)
    q = repetition_vector(graph)
    ref = graph.actors[0].name
    sim = SelfTimedSimulator(graph)
    target_iterations = 50
    sim.run(stop_when=lambda s: s.completed[ref] >= target_iterations * q[ref])
    iterations = sim.completed[ref] // q[ref]
    measured = Fraction(iterations, sim.now)
    # The long-run average can only exceed the periodic rate via the
    # transient, and approaches it from above or below within 10%.
    assert abs(float(measured - result.throughput)) <= 0.1 * float(
        result.throughput
    )


@given(consistent_ring_graphs(), st.integers(min_value=2, max_value=4))
@settings(max_examples=20, deadline=None)
def test_slowdown_is_monotonic(graph, factor):
    """Scaling every execution time by a factor divides throughput by it."""
    base = analyze_throughput(graph, max_iterations=2000)
    scaled = graph.with_execution_times(
        {a.name: a.execution_time * factor for a in graph}
    )
    slowed = analyze_throughput(scaled, max_iterations=2000)
    assert slowed.throughput == base.throughput / factor
