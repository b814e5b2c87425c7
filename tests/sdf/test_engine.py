"""Tests for the throughput engine (the state-space analysis, reused)."""

from fractions import Fraction

import pytest

from repro import counters
from repro.counters import Counters
from repro.exceptions import DeadlockError, SimulationError
from repro.sdf import SDFGraph
from repro.sdf.buffers import (
    BufferDistribution,
    add_buffer_edges,
    retune_buffer_capacity,
)
from repro.sdf.engine import ThroughputEngine
from repro.sdf.throughput import ThroughputResult, analyze_throughput
from tests.sdf.mcm import analytic_throughput
from tests.sdf.simulation_reference import reference_analyze_throughput


def bounded(graph, capacities):
    return add_buffer_edges(graph, BufferDistribution(capacities))


@pytest.fixture
def figure2_bounded(figure2_graph):
    return bounded(figure2_graph, {"a2b": 4, "a2c": 2, "b2c": 4})


@pytest.fixture
def long_transient_bounded(two_actor_pipeline):
    """P(5) -> Q(7) with 40 credits: the producer creeps ahead for ~130
    iterations before the state recurs."""
    return bounded(two_actor_pipeline, {"p2q": 40})


# ----------------------------------------------------------------------
# the engine against both oracles
# ----------------------------------------------------------------------
class TestAgainstOracles:
    def test_matches_simulation_oracle(self, figure2_bounded):
        result = ThroughputEngine(figure2_bounded).analyze()
        assert result.tier == "vectorized"
        assert result == reference_analyze_throughput(figure2_bounded)
        assert result.throughput == Fraction(1, 6)

    def test_long_transient_matches_both_oracles(
        self, long_transient_bounded
    ):
        result = ThroughputEngine(long_transient_bounded).analyze()
        assert result.tier == "vectorized"
        assert result.transient_iterations > 100
        assert result == reference_analyze_throughput(long_transient_bounded)
        assert result.throughput == Fraction(1, 7)
        assert (analytic_throughput(long_transient_bounded).throughput
                == result.throughput)

    def test_static_order_matches_simulation_oracle(self, figure2_bounded):
        binding = dict(
            processor_of={"A": "t", "B": "t", "C": "t"},
            static_order={"t": ["A", "B", "B", "C"]},
        )
        result = ThroughputEngine(figure2_bounded, **binding).analyze()
        assert result == reference_analyze_throughput(
            figure2_bounded, **binding
        )
        assert result.throughput == Fraction(1, 12)

    def test_large_multirate_expansion(self):
        # 256 B firings per iteration: credits return one per B firing,
        # so A waits out all 256 (2 + 256 cycles).
        big = 256
        g = SDFGraph("wide")
        g.add_actor("A", execution_time=2)
        g.add_actor("B", execution_time=1)
        g.add_edge("ab", "A", "B", production=big, consumption=1,
                   initial_tokens=0)
        g.add_edge("ba", "B", "A", production=1, consumption=big,
                   initial_tokens=big)
        assert ThroughputEngine(g).analyze().throughput == Fraction(
            1, big + 2
        )

    def test_mcm_oracle_agrees_with_simulation_oracle(self, figure2_bounded):
        analytic = analytic_throughput(figure2_bounded)
        assert analytic.tier == "reference"
        assert analytic.transient_iterations == 0
        assert analytic.throughput == Fraction(1, 6)
        assert (analytic.throughput
                == reference_analyze_throughput(figure2_bounded).throughput)

    def test_engine_takes_no_mode(self, figure2_bounded):
        with pytest.raises(TypeError):
            ThroughputEngine(figure2_bounded, mode="vectorized")
        with pytest.raises(TypeError):
            analyze_throughput(figure2_bounded, engine="analytic")


ANALYSES = {
    "engine": lambda graph: ThroughputEngine(graph).analyze(),
    "mcm_oracle": analytic_throughput,
}


@pytest.mark.parametrize("analysis", sorted(ANALYSES))
def test_deadlock_rejected(analysis):
    g = SDFGraph("dead")
    g.add_actor("A", execution_time=1)
    g.add_actor("B", execution_time=1)
    g.add_edge("ab", "A", "B")
    g.add_edge("ba", "B", "A")  # no initial tokens: deadlock
    with pytest.raises(DeadlockError):
        ANALYSES[analysis](g)


@pytest.mark.parametrize("analysis", sorted(ANALYSES))
def test_zero_time_cycles_rejected(analysis):
    g = SDFGraph("instant")
    g.add_actor("A", execution_time=0)
    g.add_actor("B", execution_time=0)
    g.add_edge("ab", "A", "B")
    g.add_edge("ba", "B", "A", initial_tokens=1)
    with pytest.raises(SimulationError, match="unbounded"):
        ANALYSES[analysis](g)


def test_tier_does_not_affect_equality():
    a = ThroughputResult(
        throughput=Fraction(1, 6), period=6, iterations_per_period=1,
        transient_iterations=2, tier="vectorized",
    )
    b = ThroughputResult(
        throughput=Fraction(1, 6), period=6, iterations_per_period=1,
        transient_iterations=2, tier="reference",
    )
    assert a == b


@pytest.mark.parametrize("processor_of", (None, {"A": "t", "B": "t"}))
def test_bad_reference_actor_rejected(figure2_bounded, processor_of):
    engine = ThroughputEngine(
        figure2_bounded, reference_actor="ZZZ", processor_of=processor_of
    )
    with pytest.raises(SimulationError, match="reference actor"):
        engine.analyze()


def test_rejected_reference_actor_counts_no_analysis(figure2_bounded):
    """An engine whose reference actor is not in the graph runs no
    analysis, so ``engine.analyses`` stays as it was."""
    engine = ThroughputEngine(figure2_bounded, reference_actor="ZZZ")
    with counters.collect() as scope:
        for _ in range(2):
            with pytest.raises(SimulationError, match="reference actor"):
                engine.analyze()
    assert scope.snapshot("engine") == {"analyses": 0}


# ----------------------------------------------------------------------
# warm reuse (in-place token mutation between calls)
# ----------------------------------------------------------------------
class TestWarmReuse:
    def test_retuned_tokens_reanalyzed_exactly(self, two_actor_pipeline):
        bounded_graph = bounded(two_actor_pipeline, {"p2q": 1})
        engine = ThroughputEngine(bounded_graph)
        assert engine.analyze().throughput == Fraction(1, 12)
        for capacity in (2, 4, 1, 3):
            retune_buffer_capacity(bounded_graph, "p2q", capacity)
            warm = engine.analyze()
            cold = ThroughputEngine(
                bounded(two_actor_pipeline, {"p2q": capacity})
            ).analyze()
            assert warm == cold

    def test_one_unbound_plan_serves_every_analysis(
        self, figure2_bounded, monkeypatch
    ):
        """The lean loop's plan depends on the structure, the binding
        and the observed set alone, so it outlives reset()."""
        from repro.sdf import simulation

        built = []

        class CountedPlan(simulation._UnboundPlan):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(simulation, "_UnboundPlan", CountedPlan)
        engine = ThroughputEngine(figure2_bounded)
        first = engine.analyze()
        assert engine.analyze() == first
        assert len(built) == 1

    def test_given_repetition_vector_is_not_solved_again(
        self, figure2_bounded, monkeypatch
    ):
        """A bound graph's cached vector serves the engine as it is."""
        from repro.sdf import engine as engine_module
        from repro.sdf.repetition import repetition_vector

        q = repetition_vector(figure2_bounded)
        expected = ThroughputEngine(figure2_bounded).analyze()

        def unsolvable(graph):
            raise AssertionError("repetition vector solved again")

        monkeypatch.setattr(engine_module, "repetition_vector", unsolvable)
        assert ThroughputEngine(
            figure2_bounded, repetitions=q
        ).analyze() == expected

    def test_given_repetition_vector_of_another_graph_raises(
        self, figure2_bounded
    ):
        from repro.exceptions import GraphError
        from repro.sdf.repetition import repetition_vector

        q = dict(repetition_vector(figure2_bounded))
        unbalanced = {name: 2 * n for name, n in q.items()}
        unbalanced[next(iter(q))] += 1
        with pytest.raises(GraphError):
            ThroughputEngine(figure2_bounded, repetitions=unbalanced)
        with pytest.raises(GraphError):
            ThroughputEngine(
                figure2_bounded, repetitions={**q, "stale": 1}
            )

    @pytest.mark.parametrize("scale", [0, -1])
    def test_non_positive_repetition_vector_raises(
        self, figure2_bounded, scale
    ):
        """An all-zero or negated vector balances every edge; the engine
        refuses it instead of dividing by zero or, negated, counting
        iterations that never come."""
        from repro.exceptions import GraphError
        from repro.sdf.repetition import repetition_vector

        q = repetition_vector(figure2_bounded)
        with pytest.raises(GraphError, match="non-positive"):
            ThroughputEngine(
                figure2_bounded,
                repetitions={name: scale * n for name, n in q.items()},
            )


# ----------------------------------------------------------------------
# counters
# ----------------------------------------------------------------------
class TestCounters:
    def test_global_counters_increment(
        self, figure2_bounded, long_transient_bounded
    ):
        before = counters.PROCESS.snapshot("engine")
        ThroughputEngine(figure2_bounded).analyze()
        ThroughputEngine(long_transient_bounded).analyze()
        after = counters.PROCESS.snapshot("engine")
        assert after == {"analyses": before["analyses"] + 2}

    def test_scoped_collector_counts_only_inside(self, figure2_bounded):
        engine = ThroughputEngine(figure2_bounded)
        engine.analyze()  # outside: must not be collected
        with counters.collect() as scope:
            engine.analyze()
            engine.analyze()
        engine.analyze()  # after: must not be collected
        assert scope.snapshot("engine") == {"analyses": 2}

    def test_collectors_nest(self, figure2_bounded):
        engine = ThroughputEngine(figure2_bounded)
        with counters.collect() as outer:
            engine.analyze()
            with counters.collect() as inner:
                engine.analyze()
        assert outer.snapshot("engine")["analyses"] == 2
        assert inner.snapshot("engine")["analyses"] == 1

    def test_counters_are_plain_value_objects(self):
        tally = Counters(("flows", "analyses"))
        tally.add("analyses")
        tally.add("analyses")
        tally.add("flows")
        assert sum(tally.snapshot().values()) == 3
        assert tally.snapshot() == {"flows": 1, "analyses": 2}
