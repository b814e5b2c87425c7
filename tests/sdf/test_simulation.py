"""Tests for the self-timed simulation engine."""

import pytest

from repro.exceptions import DeadlockError, GraphError, SimulationError
from repro.sdf import SDFGraph, SelfTimedSimulator


def test_pipeline_executes_in_order(two_actor_pipeline):
    sim = SelfTimedSimulator(two_actor_pipeline, record_trace=True)
    sim.run(max_firings=4)
    firings = sim.trace.firings
    p_firings = [f for f in firings if f.actor == "P"]
    q_firings = [f for f in firings if f.actor == "Q"]
    # P has period 5, Q starts only after P's first completion.
    assert p_firings[0].start == 0 and p_firings[0].end == 5
    assert q_firings[0].start == 5 and q_firings[0].end == 12


def test_auto_concurrency_one_serializes_source(two_actor_pipeline):
    sim = SelfTimedSimulator(two_actor_pipeline, auto_concurrency=1,
                             record_trace=True)
    sim.run(max_time=25)
    p_firings = sim.trace.firings_of("P")
    for first, second in zip(p_firings, p_firings[1:]):
        assert second.start >= first.end


def test_auto_concurrency_two_overlaps_source(two_actor_pipeline):
    sim = SelfTimedSimulator(two_actor_pipeline, auto_concurrency=2,
                             record_trace=True)
    sim.run(max_time=25)
    p_firings = sim.trace.firings_of("P")
    overlapping = any(
        second.start < first.end
        for first, second in zip(p_firings, p_firings[1:])
    )
    assert overlapping


def test_unlimited_concurrency_requires_input_edges(two_actor_pipeline):
    with pytest.raises(GraphError, match="no input edges"):
        SelfTimedSimulator(two_actor_pipeline, auto_concurrency=None)


def test_unlimited_concurrency_with_self_edge():
    g = SDFGraph("g")
    g.add_actor("A", execution_time=3)
    g.add_actor("B", execution_time=1)
    g.add_edge("selfA", "A", "A", initial_tokens=2)
    g.add_edge("ab", "A", "B")
    sim = SelfTimedSimulator(g, auto_concurrency=None, record_trace=True)
    sim.run(max_time=3)
    # Two initial self-tokens allow exactly two concurrent firings of A.
    a_firings = [f for f in sim.trace.firings if f.actor == "A"]
    assert len([f for f in a_firings if f.start == 0]) == 2


def test_deadlocked_graph_quiesces():
    g = SDFGraph("cycle")
    g.add_actor("A", execution_time=1)
    g.add_actor("B", execution_time=1)
    g.add_edge("ab", "A", "B")
    g.add_edge("ba", "B", "A")
    sim = SelfTimedSimulator(g)
    trace = sim.run(max_time=100)
    assert sim.is_quiescent()
    assert trace.makespan() == 0
    assert sim.completed == {"A": 0, "B": 0}


def test_run_requires_a_bound(two_actor_pipeline):
    sim = SelfTimedSimulator(two_actor_pipeline)
    with pytest.raises(SimulationError, match="max_time"):
        sim.run()


def test_processor_exclusivity(two_actor_pipeline):
    """Two actors on one processor never overlap."""
    sim = SelfTimedSimulator(
        two_actor_pipeline,
        processor_of={"P": "tile0", "Q": "tile0"},
        record_trace=True,
    )
    sim.run(max_time=60)
    firings = sorted(sim.trace.firings, key=lambda f: f.start)
    for first, second in zip(firings, firings[1:]):
        assert second.start >= first.end


def test_static_order_is_followed(figure2_graph):
    order = ["A", "B", "B", "C"]
    sim = SelfTimedSimulator(
        figure2_graph,
        processor_of={"A": "t", "B": "t", "C": "t"},
        static_order={"t": order},
        record_trace=True,
    )
    sim.run(max_firings=8)
    names = [f.actor for f in sorted(sim.trace.firings,
                                     key=lambda f: (f.start, f.end))]
    assert names == ["A", "B", "B", "C", "A", "B", "B", "C"]


def test_actor_outside_order_runs_interleaved(figure2_graph):
    """Actors bound to a static-order processor but not listed in its order
    model communication-library work: they run when the PE is idle."""
    sim = SelfTimedSimulator(
        figure2_graph,
        processor_of={"A": "t", "B": "t"},
        static_order={"t": ["A"]},  # B interleaves
        record_trace=True,
    )
    sim.run(max_firings=6)
    assert sim.completed["B"] > 0
    # A and B still never overlap: same processor.
    firings = sorted(
        (f for f in sim.trace.firings if f.actor in "AB"),
        key=lambda f: f.start,
    )
    for first, second in zip(firings, firings[1:]):
        assert second.start >= first.end


def test_static_order_unknown_actor_rejected(figure2_graph):
    with pytest.raises(GraphError, match="unknown actor"):
        SelfTimedSimulator(
            figure2_graph,
            processor_of={"A": "t"},
            static_order={"t": ["A", "Zed"]},
        )


def test_static_order_requires_binding(figure2_graph):
    with pytest.raises(GraphError, match="not bound"):
        SelfTimedSimulator(
            figure2_graph,
            processor_of={"A": "other"},
            static_order={"t": ["A"]},
        )


def test_blocking_static_order_quiesces():
    """An order that demands a never-ready actor blocks the processor."""
    g = SDFGraph("g")
    g.add_actor("A", execution_time=1)
    g.add_actor("B", execution_time=1)
    g.add_edge("ab", "A", "B")
    sim = SelfTimedSimulator(
        g,
        processor_of={"A": "t", "B": "t"},
        static_order={"t": ["B", "A"]},  # B first, but B needs A's token
    )
    sim.run(max_time=10)
    assert sim.is_quiescent()
    assert sim.completed["B"] == 0


def test_max_token_tracking(figure2_graph):
    sim = SelfTimedSimulator(figure2_graph)
    sim.run(max_firings=40)
    # a2b receives 2 tokens per A firing and holds at least that many.
    assert sim.trace.max_tokens["a2b"] >= 2


def test_data_dependent_execution_times(two_actor_pipeline):
    durations = {"P": [3, 9, 3], "Q": [2, 2, 2]}
    hooks = {
        actor: (lambda k, series=series: series[k % len(series)])
        for actor, series in durations.items()
    }

    sim = SelfTimedSimulator(
        two_actor_pipeline, execution_time_of=hooks, record_trace=True
    )
    sim.run(max_firings=6)
    p_firings = sim.trace.firings_of("P")
    assert p_firings[0].duration == 3
    assert p_firings[1].duration == 9


def test_only_mapped_actors_are_hooked(two_actor_pipeline):
    calls = []

    def p_time(k):
        calls.append(k)
        return (3, 9)[k % 2]

    sim = SelfTimedSimulator(
        two_actor_pipeline, execution_time_of={"P": p_time},
        record_trace=True,
    )
    sim.run(max_firings=8)
    assert [f.duration for f in sim.trace.firings_of("P")][:4] == [3, 9, 3, 9]
    # Q is not in the mapping: every firing takes its static time.
    assert {f.duration for f in sim.trace.firings_of("Q")} == {7}
    assert calls == list(range(sim.started["P"]))


def test_hook_for_unknown_actor_rejected(two_actor_pipeline):
    with pytest.raises(GraphError, match="hook for unknown actor 'X'"):
        SelfTimedSimulator(
            two_actor_pipeline, execution_time_of={"X": lambda k: 1}
        )


def test_finish_hook_is_gone(two_actor_pipeline):
    """Completion order is read from the trace; there is no per-finish
    callback."""
    with pytest.raises(TypeError):
        SelfTimedSimulator(two_actor_pipeline, on_finish=lambda a, k: None)


def test_negative_hooked_duration_rejected(two_actor_pipeline):
    sim = SelfTimedSimulator(
        two_actor_pipeline, execution_time_of={"Q": lambda k: -1}
    )
    with pytest.raises(SimulationError,
                       match="negative execution time for firing 0 of 'Q'"):
        sim.run(max_firings=4)


def _stepped_until(sim, actor, target):
    while sim.completed_of(actor) < target:
        assert sim.step()
    return sim.now


@pytest.mark.parametrize("resources", [
    {},
    {"processor_of": {"B": "t", "C": "t"},
     "static_order": {"t": ["B", "B", "C"]}},
])
def test_run_until_matches_stepping(figure2_graph, resources):
    stepped = SelfTimedSimulator(
        figure2_graph, record_trace=True, **resources
    )
    lean = SelfTimedSimulator(figure2_graph, record_trace=True, **resources)
    for target in (3, 3, 7):  # a met target returns without stepping
        now = _stepped_until(stepped, "C", target)
        assert lean.run_until({"C": target}, max_steps=1000) == now
        assert lean.completed == stepped.completed
        assert lean.trace.firings == stepped.trace.firings


def test_run_until_counts_down_every_target(figure2_graph):
    sim = SelfTimedSimulator(figure2_graph)
    sim.run_until({"A": 4, "B": 8}, max_steps=1000)
    assert sim.completed_of("A") >= 4 and sim.completed_of("B") >= 8
    assert sim.completed_of("B") < 8 + 2  # stops at the instant B gets 8


def test_run_until_stops_at_the_step_budget(figure2_graph):
    stepped = SelfTimedSimulator(figure2_graph)
    for _ in range(3):
        stepped.step()
    lean = SelfTimedSimulator(figure2_graph)
    assert lean.run_until({"C": 1000}, max_steps=3) == stepped.now
    assert lean.completed == stepped.completed


def test_run_until_reports_deadlock():
    g = SDFGraph("blocked")
    g.add_actor("A", execution_time=1)
    g.add_actor("B", execution_time=1)
    g.add_edge("ab", "A", "B")
    g.add_edge("ba", "B", "A", initial_tokens=1)
    sim = SelfTimedSimulator(
        g, processor_of={"A": "t", "B": "t"}, static_order={"t": ["B", "A"]}
    )
    with pytest.raises(DeadlockError, match="blocked at t=0 with 1 target"):
        sim.run_until({"B": 1}, max_steps=100)


def test_state_key_is_time_invariant():
    """Keys taken at corresponding points of different periods match."""
    g = SDFGraph("steady")
    g.add_actor("P", execution_time=7)
    g.add_actor("Q", execution_time=5)
    g.add_edge("pq", "P", "Q")
    sim = SelfTimedSimulator(g)
    keys = {}
    for _ in range(60):
        sim.step()
        count = sim.completed["Q"]
        if count in (3, 5) and count not in keys:
            keys[count] = sim.state_key()
    # P is the bottleneck, so the execution is periodic with period 7 and
    # the time-normalized state recurs at every Q completion.
    assert keys[3] == keys[5]


def test_reset_restores_initial_state(figure2_graph):
    sim = SelfTimedSimulator(figure2_graph)
    sim.run(max_firings=10)
    assert sim.now > 0
    sim.reset()
    assert sim.now == 0
    assert sim.tokens["selfA"] == 1
    assert sim.completed == {"A": 0, "B": 0, "C": 0}


def test_trace_completed_count_is_a_snapshot(two_actor_pipeline):
    """A trace returned by run() must not mutate retroactively when the
    simulator keeps stepping (regression: completed_count aliased the
    simulator's live dict)."""
    sim = SelfTimedSimulator(two_actor_pipeline)
    trace = sim.run(max_firings=2)
    snapshot = dict(trace.completed_count)
    assert sum(snapshot.values()) >= 2
    for _ in range(5):
        sim.step()
    assert sim.completed != snapshot  # the simulator did advance...
    assert trace.completed_count == snapshot  # ...but the trace stood still


def test_trace_completed_count_updates_on_next_run(two_actor_pipeline):
    sim = SelfTimedSimulator(two_actor_pipeline)
    first = dict(sim.run(max_firings=2).completed_count)
    second = dict(sim.run(max_firings=6).completed_count)
    assert sum(second.values()) > sum(first.values())
    assert second == sim.completed


def test_reset_rereads_mutated_initial_tokens(two_actor_pipeline):
    """The buffer-sizing warm path mutates initial tokens in place; the
    simulator must pick the new counts up on reset."""
    sim = SelfTimedSimulator(two_actor_pipeline)
    assert sim.tokens["p2q"] == 0
    two_actor_pipeline.edge("p2q").initial_tokens = 3
    sim.reset()
    assert sim.tokens["p2q"] == 3
    assert sim.trace.max_tokens["p2q"] == 3


def test_completed_of(two_actor_pipeline):
    sim = SelfTimedSimulator(two_actor_pipeline)
    sim.run(max_firings=4)
    assert sim.completed_of("P") == sim.completed["P"]


def test_trace_property_reflects_step_driven_progress(two_actor_pipeline):
    """Callers that drive step() directly (the platform simulator) read
    the trace via the property; its completed_count must be current even
    though run() never finalized it."""
    sim = SelfTimedSimulator(two_actor_pipeline)
    for _ in range(4):
        sim.step()
    assert sum(sim.completed.values()) > 0
    assert sim.trace.completed_count == sim.completed


def test_earlier_trace_survives_later_finalization(two_actor_pipeline):
    """Re-finalizing (second run(), trace property access) must not rewrite
    a trace handed out earlier -- every handout owns its snapshot."""
    sim = SelfTimedSimulator(two_actor_pipeline)
    first = sim.run(max_firings=2)
    snapshot = dict(first.completed_count)
    for _ in range(5):
        sim.step()
    _ = sim.trace                 # property access re-finalizes
    _ = sim.run(max_firings=20)   # and so does a second run()
    assert first.completed_count == snapshot


@pytest.mark.parametrize("repetitions, max_iterations", [
    (0, 10), (-1, 10), (1, 0), (1, -3),
])
def test_run_throughput_needs_positive_counts(
    two_actor_pipeline, repetitions, max_iterations
):
    """A repetition count or iteration budget below 1 is a usage error,
    raised before the simulator changes state -- not a claim that the
    channels grow without bound, nor a loop that never ends."""
    sim = SelfTimedSimulator(two_actor_pipeline)
    with pytest.raises(SimulationError, match="at least 1"):
        sim.run_throughput("P", repetitions, max_iterations)
    assert sim.now == 0 and sim.started == {a: 0 for a in sim.started}


@pytest.mark.parametrize("call", [
    lambda sim: sim.run_until({"P": 1, "nope": 1}, max_steps=10),
    lambda sim: sim.run_throughput("nope", 1, 10),
    lambda sim: sim.completed_of("nope"),
], ids=["run_until", "run_throughput", "completed_of"])
def test_unknown_actor_is_a_graph_error(two_actor_pipeline, call):
    """Like an unknown hook or static-order actor: a GraphError naming the
    actor, raised before the simulator changes state."""
    sim = SelfTimedSimulator(two_actor_pipeline)
    sim.step()
    before = (sim.now, sim.completed, sim.started, sim.tokens,
              sim.ongoing_firings())
    with pytest.raises(GraphError, match="'nope'"):
        call(sim)
    assert (sim.now, sim.completed, sim.started, sim.tokens,
            sim.ongoing_firings()) == before
