"""Tests for the end-to-end design flow driver, effort and reporting."""

from fractions import Fraction

import pytest

from repro import counters
from repro.appmodel import (
    ActorImplementation,
    ApplicationModel,
    FiringOutput,
    ImplementationMetrics,
    MemoryRequirements,
    measure_execution_times,
)
from repro.arch import architecture_from_template
from repro.flow import (
    DesignFlow,
    EffortReport,
    TABLE1_MANUAL_STEPS,
    compare_throughput,
    format_throughput_table,
)
from repro.flow.effort import TABLE1_AUTOMATED_STEPS
from repro.flow.report import expected_throughput
from repro.sdf import SDFGraph


@pytest.fixture
def functional_app():
    g = SDFGraph("tiny")
    g.add_actor("Src", execution_time=300)
    g.add_actor("Sink", execution_time=500)
    g.add_edge("s2s", "Src", "Sink", token_size=8)

    def src_fn(ctx):
        return FiringOutput(
            outputs={"s2s": [ctx.firing_index]},
            cycles=150 + (ctx.firing_index % 4) * 25,
        )

    def sink_fn(ctx):
        return FiringOutput(outputs={}, cycles=400)

    def impl(actor, wcet, fn):
        return ActorImplementation(
            actor=actor, pe_type="microblaze",
            metrics=ImplementationMetrics(
                wcet=wcet, memory=MemoryRequirements(2048, 1024)
            ),
            function=fn,
        )

    return ApplicationModel(
        graph=g,
        implementations=[impl("Src", 300, src_fn),
                         impl("Sink", 500, sink_fn)],
    )


class TestDesignFlow:
    def test_full_run(self, functional_app):
        arch = architecture_from_template(2)
        flow = DesignFlow(functional_app, arch)
        result = flow.run(iterations=15)
        assert result.guaranteed_throughput > 0
        assert result.measured_throughput >= result.guaranteed_throughput
        assert "system.mhs" in result.project.paths()

    def test_effort_covers_automated_steps(self, functional_app):
        arch = architecture_from_template(2)
        result = DesignFlow(functional_app, arch).run(iterations=5)
        names = [t.name for t in result.effort.timings]
        assert names == list(TABLE1_AUTOMATED_STEPS)

    def test_flow_analyses_are_counted(self, functional_app):
        arch = architecture_from_template(2)
        with counters.collect() as scope:
            result = DesignFlow(functional_app, arch).run(measure=False)
        # mapping + buffer sizing ran through the engine
        assert scope.snapshot("engine")["analyses"] > 0
        assert "engine" not in result.effort.as_table()

    def test_summary_contains_table1(self, functional_app):
        arch = architecture_from_template(2)
        result = DesignFlow(functional_app, arch).run(iterations=5)
        text = result.summary()
        for manual, effort in TABLE1_MANUAL_STEPS:
            assert manual in text
        assert "automated" in text
        assert "guaranteed" in text

    def test_measure_false_skips_measurement(self, functional_app):
        arch = architecture_from_template(2)
        result = DesignFlow(functional_app, arch).run(measure=False)
        assert result.measured is None
        assert result.simulator is not None

    def test_fixed_binding_propagates(self, functional_app):
        arch = architecture_from_template(2)
        flow = DesignFlow(functional_app, arch, fixed={"Src": "tile1"})
        result = flow.run(measure=False)
        assert result.mapping_result.mapping.actor_binding["Src"] == "tile1"

    def test_non_functional_app_generates_but_does_not_run(self):
        g = SDFGraph("timed_only")
        g.add_actor("A", execution_time=100)
        g.add_actor("B", execution_time=100)
        g.add_edge("ab", "A", "B", token_size=4)
        app = ApplicationModel(
            graph=g,
            implementations=[
                ActorImplementation(
                    actor=name, pe_type="microblaze",
                    metrics=ImplementationMetrics(
                        wcet=100, memory=MemoryRequirements(1024, 512)
                    ),
                )
                for name in ("A", "B")
            ],
        )
        arch = architecture_from_template(2)
        result = DesignFlow(app, arch).run()
        assert result.simulator is None
        assert result.measured is None
        assert result.guaranteed_throughput > 0


class TestEffortReport:
    def test_step_timing(self):
        report = EffortReport()
        with report.step("sample"):
            pass
        assert report.seconds_of("sample") >= 0
        assert report.total_automated_seconds() >= 0

    def test_unknown_step(self):
        with pytest.raises(KeyError):
            EffortReport().seconds_of("nope")

    def test_human_units(self):
        from repro.flow.effort import StepTiming

        assert StepTiming("x", 0.005).human().endswith("ms")
        assert StepTiming("x", 2.0).human().endswith("s")
        assert StepTiming("x", 300.0).human().endswith("min")


class TestReporting:
    def test_expected_throughput_between_worst_and_ideal(
        self, functional_app
    ):
        from repro.mapping import map_application

        arch = architecture_from_template(2)
        result = map_application(functional_app, arch)
        measured_times = measure_execution_times(functional_app, 10)
        expected = expected_throughput(
            functional_app, arch, result, measured_times
        )
        # Actors run below WCET, so the expectation beats the guarantee.
        assert expected >= result.guaranteed_throughput

    def test_comparison_flags(self):
        good = compare_throughput(
            "w", Fraction(1, 10), Fraction(1, 8), Fraction(1, 7)
        )
        assert good.conservative()
        bad = compare_throughput(
            "w", Fraction(1, 5), Fraction(1, 8), Fraction(1, 7)
        )
        assert not bad.conservative()

    def test_expected_margin(self):
        comparison = compare_throughput(
            "w", Fraction(1, 10), Fraction(1, 8), Fraction(1, 8)
        )
        assert comparison.expected_margin() == 0.0

    def test_format_table(self):
        rows = [
            compare_throughput(
                "synthetic", Fraction(1, 10), Fraction(1, 9), Fraction(1, 8)
            ),
            compare_throughput(
                "gradient", Fraction(1, 10), Fraction(1, 4), Fraction(1, 4)
            ),
        ]
        text = format_throughput_table(rows)
        assert "synthetic" in text and "gradient" in text
        assert "worst-case" in text
        assert "BOUND VIOLATED" not in text
