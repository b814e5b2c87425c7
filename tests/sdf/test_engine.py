"""Tests for the tiered throughput engine facade."""

from fractions import Fraction

import pytest

from repro.exceptions import DeadlockError, SimulationError
from repro.sdf import SDFGraph
from repro.sdf.buffers import (
    BufferDistribution,
    add_buffer_edges,
    retune_buffer_capacity,
)
from repro.sdf.engine import (
    ENGINE_MODES,
    MAX_HSDF_COPIES,
    EngineCounters,
    EngineUnsupportedError,
    ThroughputEngine,
    collect_engine_counters,
    engine_counters,
    normalize_engine_mode,
)
from repro.sdf.simulation_reference import reference_analyze_throughput
from repro.sdf.throughput import ThroughputResult, analyze_throughput


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
        assert engine.tier_for() == ("analytic", None)
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
        analytic = ThroughputEngine(
            figure2_bounded, mode="analytic"
        ).analyze()
        oracle = reference_analyze_throughput(figure2_bounded)
        assert analytic.throughput == oracle.throughput

    def test_static_order_declines_analytic(self, figure2_bounded):
        engine = ThroughputEngine(
            figure2_bounded,
            processor_of={"A": "t", "B": "t", "C": "t"},
            static_order={"t": ["A", "B", "B", "C"]},
        )
        tier, reason = engine.tier_for()
        assert tier == "vectorized"
        assert "static-order" in reason
        result = engine.analyze()
        assert result.tier == "vectorized"
        assert result.tier_reason == reason
        assert result.throughput == Fraction(1, 12)

    def test_shared_processor_declines_analytic(self, figure2_bounded):
        engine = ThroughputEngine(
            figure2_bounded, processor_of={"A": "t", "B": "t"}
        )
        tier, reason = engine.tier_for()
        assert tier == "vectorized"
        assert "time-share" in reason and "t" in reason

    def test_exclusive_processors_keep_analytic(self, figure2_bounded):
        engine = ThroughputEngine(
            figure2_bounded,
            processor_of={"A": "t0", "B": "t1", "C": "t2"},
        )
        assert engine.tier_for() == ("analytic", None)
        assert engine.analyze().throughput == Fraction(1, 6)

    def test_auto_concurrency_declines_analytic(self, figure2_bounded):
        engine = ThroughputEngine(figure2_bounded, auto_concurrency=None)
        tier, reason = engine.tier_for()
        assert tier == "vectorized"
        assert "auto-concurrency" in reason

    def test_unconnected_graph_declines_analytic(self, two_actor_pipeline):
        # No back-edge: the pipeline is not strongly connected.
        engine = ThroughputEngine(two_actor_pipeline)
        tier, reason = engine.tier_for()
        assert tier == "vectorized"
        assert "strongly connected" in reason

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
        tier, reason = engine.tier_for()
        assert tier == "vectorized"
        assert "HSDF expansion too large" in reason
        # The fallback still analyzes the graph exactly: credits return
        # one per B firing, so A waits out all 256 (2 + 256 cycles).
        assert engine.analyze().throughput == Fraction(1, big + 2)


# ----------------------------------------------------------------------
# forced modes
# ----------------------------------------------------------------------
class TestForcedModes:
    def test_forced_vectorized_is_recorded(self, figure2_bounded):
        result = ThroughputEngine(
            figure2_bounded, mode="vectorized"
        ).analyze()
        assert result.tier == "vectorized"
        assert result.tier_reason == "engine mode 'vectorized' forced"
        assert result == reference_analyze_throughput(figure2_bounded)

    def test_forced_analytic_on_eligible_graph(self, figure2_bounded):
        result = ThroughputEngine(
            figure2_bounded, mode="analytic"
        ).analyze()
        assert result.tier == "analytic"
        assert result.tier_reason == "engine mode 'analytic' forced"

    def test_forced_analytic_on_ineligible_graph_raises(
        self, figure2_bounded
    ):
        engine = ThroughputEngine(
            figure2_bounded,
            processor_of={"A": "t", "B": "t", "C": "t"},
            static_order={"t": ["A", "B", "B", "C"]},
            mode="analytic",
        )
        with pytest.raises(EngineUnsupportedError, match="static-order"):
            engine.analyze()

    def test_unknown_mode_rejected(self, figure2_bounded):
        with pytest.raises(ValueError, match="unknown throughput engine"):
            ThroughputEngine(figure2_bounded, mode="turbo")
        with pytest.raises(ValueError, match="turbo"):
            normalize_engine_mode("turbo")
        for mode in ENGINE_MODES:
            assert normalize_engine_mode(mode) == mode

    def test_reference_mode_is_gone(self, figure2_bounded):
        assert ENGINE_MODES == ("auto", "analytic", "vectorized")
        with pytest.raises(ValueError, match="unknown throughput engine"):
            ThroughputEngine(figure2_bounded, mode="reference")

    @pytest.mark.parametrize("mode", ENGINE_MODES)
    def test_every_mode_runs_deadlock_precheck(self, mode):
        g = SDFGraph("dead")
        g.add_actor("A", execution_time=1)
        g.add_actor("B", execution_time=1)
        g.add_edge("ab", "A", "B")
        g.add_edge("ba", "B", "A")  # no initial tokens: deadlock
        with pytest.raises(DeadlockError):
            ThroughputEngine(g, mode=mode).analyze()

    def test_analyze_throughput_engine_knob(self, figure2_bounded):
        auto = analyze_throughput(figure2_bounded)
        pinned = analyze_throughput(figure2_bounded, engine="analytic")
        assert auto.tier == "vectorized"
        assert pinned.tier == "analytic"
        assert auto.throughput == pinned.throughput
        with pytest.raises(ValueError, match="unknown throughput engine"):
            analyze_throughput(figure2_bounded, engine="warp")


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


def test_bad_reference_actor_rejected_by_every_tier(figure2_bounded):
    for mode in ENGINE_MODES:
        engine = ThroughputEngine(
            figure2_bounded, reference_actor="ZZZ", mode=mode
        )
        with pytest.raises(SimulationError, match="reference actor"):
            engine.analyze()


# ----------------------------------------------------------------------
# warm reuse (in-place token mutation between calls)
# ----------------------------------------------------------------------
class TestWarmReuse:
    def test_retuned_tokens_reanalyzed_exactly(self, two_actor_pipeline):
        bounded_graph = bounded(two_actor_pipeline, {"p2q": 1})
        engine = ThroughputEngine(bounded_graph, mode="vectorized")
        assert engine.analyze().throughput == Fraction(1, 12)
        for capacity in (2, 4, 1, 3):
            retune_buffer_capacity(bounded_graph, "p2q", capacity)
            warm = engine.analyze()
            cold = analyze_throughput(
                bounded(two_actor_pipeline, {"p2q": capacity}),
                engine="vectorized",
            )
            assert warm == cold

    def test_analytic_rereads_mutated_tokens(self, two_actor_pipeline):
        bounded_graph = bounded(two_actor_pipeline, {"p2q": 1})
        engine = ThroughputEngine(bounded_graph, mode="analytic")
        assert engine.tier_for()[0] == "analytic"
        assert engine.analyze().throughput == Fraction(1, 12)
        retune_buffer_capacity(bounded_graph, "p2q", 4)
        assert engine.analyze().throughput == Fraction(1, 7)


# ----------------------------------------------------------------------
# counters
# ----------------------------------------------------------------------
class TestCounters:
    def test_global_counters_increment(self, figure2_bounded):
        before = engine_counters().snapshot()
        ThroughputEngine(figure2_bounded).analyze()
        ThroughputEngine(figure2_bounded, mode="analytic").analyze()
        after = engine_counters().snapshot()
        assert after["vectorized"] == before["vectorized"] + 1
        assert after["analytic"] == before["analytic"] + 1

    def test_scoped_collector_counts_only_inside(self, figure2_bounded):
        engine = ThroughputEngine(figure2_bounded, mode="vectorized")
        engine.analyze()  # outside: must not be collected
        with collect_engine_counters() as tiers:
            engine.analyze()
            engine.analyze()
        engine.analyze()  # after: must not be collected
        assert tiers.snapshot() == {"analytic": 0, "vectorized": 2}
        assert tiers.total() == 2

    def test_collectors_nest(self, figure2_bounded):
        engine = ThroughputEngine(figure2_bounded)
        with collect_engine_counters() as outer:
            engine.analyze()
            with collect_engine_counters() as inner:
                engine.analyze()
        assert outer.snapshot()["vectorized"] == 2
        assert inner.snapshot()["vectorized"] == 1

    def test_counters_are_plain_value_objects(self):
        counters = EngineCounters()
        counters.record("vectorized")
        counters.record("vectorized")
        counters.record("analytic")
        assert counters.total() == 3
        assert counters.snapshot() == {"analytic": 1, "vectorized": 2}
