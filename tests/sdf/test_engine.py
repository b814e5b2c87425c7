"""Tests for the tiered throughput engine facade."""

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
from repro.sdf.engine import (
    MAX_HSDF_COPIES,
    ThroughputEngine,
    analytic_throughput,
)
from tests.sdf.simulation_reference import reference_analyze_throughput
from repro.sdf.throughput import ThroughputResult, analyze_throughput
from tests.sdf.tiers import simulated_throughput


def bounded(graph, capacities):
    return add_buffer_edges(graph, BufferDistribution(capacities))


@pytest.fixture
def figure2_bounded(figure2_graph):
    return bounded(figure2_graph, {"a2b": 4, "a2c": 2, "b2c": 4})


@pytest.fixture
def long_transient_bounded(two_actor_pipeline):
    """P(5) -> Q(7) with 40 credits: the producer creeps ahead for ~130
    iterations before the state recurs -- far beyond the probe."""
    return bounded(two_actor_pipeline, {"p2q": 40})


# ----------------------------------------------------------------------
# tier policy
# ----------------------------------------------------------------------
class TestTierPolicy:
    def test_short_state_space_stays_on_the_probe(self, figure2_bounded):
        # Eligible for analytic, but the state space recurs within the
        # probe -- simulation already was the cheaper exact analysis.
        engine = ThroughputEngine(figure2_bounded)
        assert engine.analytic_decline_reason is None
        result = engine.analyze()
        assert result.tier == "vectorized"
        assert "probe" in result.tier_reason
        assert result.throughput == Fraction(1, 6)

    def test_long_state_space_escalates_to_analytic(
        self, long_transient_bounded
    ):
        engine = ThroughputEngine(long_transient_bounded)
        result = engine.analyze()
        assert result.tier == "analytic"
        assert "outlived" in result.tier_reason
        assert result.throughput == Fraction(1, 7)
        oracle = reference_analyze_throughput(long_transient_bounded)
        assert result.throughput == oracle.throughput

    def test_mcm_budget_falls_back_to_vectorized(
        self, long_transient_bounded, monkeypatch
    ):
        import repro.sdf.engine as engine_module

        monkeypatch.setattr(engine_module, "MCM_RELAXATION_FACTOR", 0)
        result = ThroughputEngine(long_transient_bounded).analyze()
        assert result.tier == "vectorized"
        assert "relaxation budget" in result.tier_reason
        assert result.throughput == Fraction(1, 7)

    def test_analytic_agrees_with_oracle_value(self, figure2_bounded):
        analytic = analytic_throughput(figure2_bounded)
        oracle = reference_analyze_throughput(figure2_bounded)
        assert analytic.throughput == oracle.throughput

    def test_static_order_declines_analytic(self, figure2_bounded):
        engine = ThroughputEngine(
            figure2_bounded,
            processor_of={"A": "t", "B": "t", "C": "t"},
            static_order={"t": ["A", "B", "B", "C"]},
        )
        reason = engine.analytic_decline_reason
        assert "static-order" in reason
        result = engine.analyze()
        assert result.tier == "vectorized"
        assert result.tier_reason == reason
        assert result.throughput == Fraction(1, 12)

    def test_shared_processor_declines_analytic(self, figure2_bounded):
        engine = ThroughputEngine(
            figure2_bounded, processor_of={"A": "t", "B": "t"}
        )
        reason = engine.analytic_decline_reason
        assert "time-share" in reason and "t" in reason

    def test_exclusive_processors_keep_analytic(self, figure2_bounded):
        engine = ThroughputEngine(
            figure2_bounded,
            processor_of={"A": "t0", "B": "t1", "C": "t2"},
        )
        assert engine.analytic_decline_reason is None
        assert engine.analyze().throughput == Fraction(1, 6)

    def test_auto_concurrency_declines_analytic(self, figure2_bounded):
        engine = ThroughputEngine(figure2_bounded, auto_concurrency=None)
        assert "auto-concurrency" in engine.analytic_decline_reason

    def test_unconnected_graph_declines_analytic(self, two_actor_pipeline):
        # No back-edge: the pipeline is not strongly connected.
        engine = ThroughputEngine(two_actor_pipeline)
        assert "strongly connected" in engine.analytic_decline_reason

    def test_oversized_expansion_declines_analytic(self):
        big = MAX_HSDF_COPIES
        g = SDFGraph("wide")
        g.add_actor("A", execution_time=2)
        g.add_actor("B", execution_time=1)
        g.add_edge("ab", "A", "B", production=big, consumption=1,
                   initial_tokens=0)
        g.add_edge("ba", "B", "A", production=1, consumption=big,
                   initial_tokens=big)
        engine = ThroughputEngine(g)
        assert "HSDF expansion too large" in engine.analytic_decline_reason
        # The fallback still analyzes the graph exactly: credits return
        # one per B firing, so A waits out all 256 (2 + 256 cycles).
        assert engine.analyze().throughput == Fraction(1, big + 2)


# ----------------------------------------------------------------------
# tiers called directly (the engine has no pin)
# ----------------------------------------------------------------------
TIERS = {
    "auto": lambda graph: ThroughputEngine(graph).analyze(),
    "analytic": analytic_throughput,
    "vectorized": simulated_throughput,
}


class TestDirectTiers:
    def test_simulated_tier_matches_oracle(self, figure2_bounded):
        result = simulated_throughput(figure2_bounded)
        assert result.tier == "vectorized"
        assert result == reference_analyze_throughput(figure2_bounded)

    def test_analytic_tier_on_eligible_graph(self, figure2_bounded):
        result = analytic_throughput(figure2_bounded)
        assert result.tier == "analytic"
        assert result.transient_iterations == 0
        assert result.throughput == Fraction(1, 6)

    def test_analytic_budget_raises(self, long_transient_bounded):
        from repro.sdf.mcm import CycleRatioBudgetError

        with pytest.raises(CycleRatioBudgetError):
            analytic_throughput(long_transient_bounded, relaxation_factor=0)

    def test_engine_takes_no_mode(self, figure2_bounded):
        with pytest.raises(TypeError):
            ThroughputEngine(figure2_bounded, mode="vectorized")
        with pytest.raises(TypeError):
            analyze_throughput(figure2_bounded, engine="analytic")

    @pytest.mark.parametrize("tier", sorted(TIERS))
    def test_every_tier_rejects_deadlock(self, tier):
        g = SDFGraph("dead")
        g.add_actor("A", execution_time=1)
        g.add_actor("B", execution_time=1)
        g.add_edge("ab", "A", "B")
        g.add_edge("ba", "B", "A")  # no initial tokens: deadlock
        with pytest.raises(DeadlockError):
            TIERS[tier](g)

    @pytest.mark.parametrize("tier", sorted(TIERS))
    def test_every_tier_rejects_zero_time_cycles(self, tier):
        g = SDFGraph("instant")
        g.add_actor("A", execution_time=0)
        g.add_actor("B", execution_time=0)
        g.add_edge("ab", "A", "B")
        g.add_edge("ba", "B", "A", initial_tokens=1)
        with pytest.raises(SimulationError, match="unbounded"):
            TIERS[tier](g)


# ----------------------------------------------------------------------
# result identity across tiers
# ----------------------------------------------------------------------
def test_tier_fields_do_not_affect_equality():
    a = ThroughputResult(
        throughput=Fraction(1, 6), period=6, iterations_per_period=1,
        transient_iterations=2, tier="vectorized", tier_reason="x",
    )
    b = ThroughputResult(
        throughput=Fraction(1, 6), period=6, iterations_per_period=1,
        transient_iterations=2, tier="reference", tier_reason=None,
    )
    assert a == b


@pytest.mark.parametrize("processor_of", (None, {"A": "t", "B": "t"}))
def test_bad_reference_actor_rejected(figure2_bounded, processor_of):
    # eligible (probe first) and ineligible (simulation only) graphs
    engine = ThroughputEngine(
        figure2_bounded, reference_actor="ZZZ", processor_of=processor_of
    )
    with pytest.raises(SimulationError, match="reference actor"):
        engine.analyze()


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
            cold = simulated_throughput(
                bounded(two_actor_pipeline, {"p2q": capacity})
            )
            assert warm.tier == "vectorized"
            assert warm == cold

    def test_analytic_rereads_mutated_tokens(self, two_actor_pipeline):
        bounded_graph = bounded(two_actor_pipeline, {"p2q": 1})
        assert ThroughputEngine(bounded_graph).analytic_decline_reason is None
        assert analytic_throughput(bounded_graph).throughput == Fraction(1, 12)
        retune_buffer_capacity(bounded_graph, "p2q", 4)
        assert analytic_throughput(bounded_graph).throughput == Fraction(1, 7)


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
        assert after["vectorized"] == before["vectorized"] + 1
        assert after["analytic"] == before["analytic"] + 1

    def test_scoped_collector_counts_only_inside(self, figure2_bounded):
        engine = ThroughputEngine(figure2_bounded)
        engine.analyze()  # outside: must not be collected
        with counters.collect() as scope:
            engine.analyze()
            engine.analyze()
        engine.analyze()  # after: must not be collected
        tiers = scope.snapshot("engine")
        assert tiers == {"analytic": 0, "vectorized": 2}
        assert sum(tiers.values()) == 2

    def test_collectors_nest(self, figure2_bounded):
        engine = ThroughputEngine(figure2_bounded)
        with counters.collect() as outer:
            engine.analyze()
            with counters.collect() as inner:
                engine.analyze()
        assert outer.snapshot("engine")["vectorized"] == 2
        assert inner.snapshot("engine")["vectorized"] == 1

    def test_counters_are_plain_value_objects(self):
        tiers = Counters(("analytic", "vectorized"))
        tiers.add("vectorized")
        tiers.add("vectorized")
        tiers.add("analytic")
        assert sum(tiers.snapshot().values()) == 3
        assert tiers.snapshot() == {"analytic": 1, "vectorized": 2}
