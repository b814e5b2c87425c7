"""Round-trip tests: ``from_payload(to_payload(x)) == x`` for every
public result type, plus canonical-encoding and envelope guarantees."""

import json
from fractions import Fraction

import pytest

from repro.appmodel import (
    ActorImplementation,
    ApplicationModel,
    ImplementationMetrics,
    MemoryRequirements,
)
from repro.arch import architecture_from_template
from repro.arch.area import AreaEstimate
from repro.artifacts import (
    ArtifactError,
    SCHEMA_VERSION,
    artifact_digest,
    canonical_json,
    check_envelope,
    from_payload,
    kind_of,
    registered_kinds,
    to_payload,
)
from repro.flow import (
    COMPACT_MIX,
    CandidatePoint,
    DesignFlow,
    DesignSpace,
    Evaluator,
    ParallelExplorer,
    StrategyTuple,
)
from repro.flow.dse import EvaluationOutcome, TileMix
from repro.flow.effort import EffortReport, StepTiming
from repro.flow.usecases import map_use_cases
from repro.mamps.project import PlatformProject
from repro.mapping import map_application
from repro.sdf import SDFGraph
from repro.sim.platform_sim import MeasuredThroughput


def make_app(name="rt_app", wcets=(400, 700, 300)):
    """A timing-only chain application (no callables -> exact round-trip)."""
    g = SDFGraph(name)
    names = [f"{name}_a{i}" for i in range(len(wcets))]
    for actor, t in zip(names, wcets):
        g.add_actor(actor, execution_time=t)
    for src, dst in zip(names, names[1:]):
        g.add_edge(f"{src}2{dst}", src, dst, token_size=16)
    return ApplicationModel(
        graph=g,
        implementations=[
            ActorImplementation(
                actor=actor, pe_type="microblaze",
                metrics=ImplementationMetrics(
                    wcet=t, memory=MemoryRequirements(4096, 2048)
                ),
            )
            for actor, t in zip(names, wcets)
        ],
        throughput_constraint=Fraction(1, 9000),
    )


def roundtrip(obj):
    payload = to_payload(obj)
    # payloads must be canonically JSON-encodable and re-parseable
    clone = from_payload(json.loads(canonical_json(payload)))
    return payload, clone


class TestGraphAndApplication:
    def test_graph_roundtrips_every_field(self):
        g = SDFGraph("rich")
        g.add_actor("A", execution_time=10)
        g.add_actor("B", execution_time=0, group="chan", concurrency=3)
        g.add_edge("ab", "A", "B", production=2, consumption=3,
                   initial_tokens=1, token_size=12)
        g.add_edge("selfA", "A", "A", initial_tokens=1, implicit=True)
        payload, clone = roundtrip(g)
        assert clone == g
        assert clone.actor("B").concurrency == 3
        assert clone.actor("B").group == "chan"
        assert payload["kind"] == "sdf-graph"

    def test_graph_envelope_pins_its_kind(self):
        g = SDFGraph("m")
        g.add_actor("A")
        payload = to_payload(g)
        check_envelope(payload, "sdf-graph")
        assert from_payload(payload) == g
        with pytest.raises(ArtifactError):
            check_envelope(payload, "application")

    def test_application_roundtrips(self):
        app = make_app()
        payload, clone = roundtrip(app)
        assert clone == app
        assert clone.throughput_constraint == Fraction(1, 9000)
        assert payload["schema_version"] == SCHEMA_VERSION

    def test_functional_models_decode_timing_only(self):
        app = make_app()
        impl = app.implementations[0]
        impl.function = lambda ctx: None
        payload = to_payload(app)
        recorded = payload["implementations"][0]["function"]
        assert recorded and "lambda" in recorded
        clone = from_payload(payload)
        assert clone.implementations[0].function is None
        assert not clone.is_functional()


class TestArchitecture:
    @pytest.mark.parametrize("interconnect", ["fsl", "noc"])
    def test_template_roundtrips(self, interconnect):
        arch = architecture_from_template(
            4, interconnect, with_ca=True, slave_data_kb=64
        )
        payload, clone = roundtrip(arch)
        assert clone == arch
        clone.validate()  # decoded platforms are valid platforms

    def test_single_tile_has_null_interconnect(self):
        arch = architecture_from_template(1, "fsl")
        payload, clone = roundtrip(arch)
        assert payload["interconnect"] is None
        assert clone == arch

    def test_noc_placement_order_is_preserved(self):
        arch = architecture_from_template(5, "noc")
        clone = from_payload(to_payload(arch))
        assert clone.interconnect.tile_names == \
            arch.interconnect.tile_names
        assert clone.interconnect.position_of("tile3") == \
            arch.interconnect.position_of("tile3")


class TestMappingResults:
    @pytest.fixture
    def result(self):
        app = make_app()
        arch = architecture_from_template(3, "noc")
        return map_application(app, arch)

    def test_mapping_result_roundtrips(self, result):
        payload, clone = roundtrip(result)
        assert clone == result
        assert clone.guaranteed_throughput == \
            result.guaranteed_throughput
        assert clone.constraint_met == result.constraint_met

    def test_mapping_roundtrips(self, result):
        payload, clone = roundtrip(result.mapping)
        assert clone == result.mapping
        assert clone.static_orders == result.mapping.static_orders

    def test_channel_parameters_survive(self, result):
        clone = from_payload(to_payload(result))
        for name, channel in result.mapping.channels.items():
            assert clone.mapping.channels[name].parameters == \
                channel.parameters

    def test_throughput_is_exact_fraction(self, result):
        clone = from_payload(to_payload(result.throughput))
        assert clone == result.throughput
        assert isinstance(clone.throughput, Fraction)


class TestExplorationTypes:
    def test_strategy_tile_mix_candidate(self):
        strategy = StrategyTuple(binding="spiral",
                                 buffer_policy="exponential", seed=9)
        candidate = CandidatePoint(
            tiles=3, interconnect="noc", with_ca=True,
            mix=COMPACT_MIX, effort="low", strategy=strategy,
        )
        for obj in (strategy, COMPACT_MIX, TileMix("x", (64, 64)),
                    candidate, AreaEstimate(10, 2)):
            payload, clone = roundtrip(obj)
            assert clone == obj

    def test_exploration_result_roundtrips(self):
        app = make_app()
        space = DesignSpace(tile_counts=(1, 2), interconnects=("fsl",))
        result = ParallelExplorer(Evaluator(app)).explore(space)
        payload, clone = roundtrip(result)
        assert clone == result
        assert clone.pareto_frontier() == result.pareto_frontier()
        assert clone.as_table() == result.as_table()
        # the promoted candidate survives, so a decoded point can still
        # seed the full flow
        point = clone.best_meeting_constraint()
        assert point is not None and point.candidate is not None
        DesignFlow.from_design_point(app, point)

    def test_evaluation_outcome_roundtrips(self):
        ok = EvaluationOutcome(
            label="2t/fsl",
            point=None,
            reason="memory infeasible",
        )
        payload, clone = roundtrip(ok)
        assert clone == ok


class TestFlowResults:
    def test_effort_report_roundtrips(self):
        report = EffortReport(timings=[
            StepTiming("Mapping the design (SDF3)", 0.123456789),
            StepTiming("Synthesis of the system", 2.5),
        ])
        payload, clone = roundtrip(report)
        assert clone == report
        assert clone.as_table() == report.as_table()

    def test_measured_throughput_roundtrips(self):
        measured = MeasuredThroughput(
            throughput=Fraction(3, 70000), iterations=30,
            cycles=700000, warmup_iterations=4,
        )
        payload, clone = roundtrip(measured)
        assert clone == measured

    def test_platform_project_roundtrips(self):
        project = PlatformProject("proj")
        project.add("system.mhs", "PORT a\n")
        project.add("src/tile0/main.c", "int main(void){return 0;}\n")
        payload, clone = roundtrip(project)
        assert clone == project

    def test_flow_result_roundtrips(self):
        app = make_app()
        arch = architecture_from_template(2, "fsl")
        result = DesignFlow(app, arch).run(measure=False)
        assert result.simulator is None  # timing-only app
        payload, clone = roundtrip(result)
        assert clone == result
        assert clone.summary() == result.summary()

    def test_use_case_mapping_roundtrips(self):
        apps = [make_app("uc_video"), make_app("uc_audio", (150, 250))]
        arch = architecture_from_template(3, "fsl")
        mapping = map_use_cases(apps, arch)
        payload, clone = roundtrip(mapping)
        assert clone == mapping
        assert clone.as_table() == mapping.as_table()


class TestEnvelope:
    def test_canonical_encoding_is_sorted_and_stable(self):
        app = make_app()
        text = canonical_json(to_payload(app))
        assert text == canonical_json(to_payload(make_app()))
        parsed = json.loads(text)
        assert list(parsed) == sorted(parsed)

    def test_digest_is_content_addressed(self):
        a = artifact_digest(to_payload(make_app()))
        b = artifact_digest(to_payload(make_app()))
        c = artifact_digest(to_payload(make_app(wcets=(400, 700, 301))))
        assert a == b != c

    def test_kind_of(self):
        assert kind_of(make_app()) == "application"
        with pytest.raises(ArtifactError, match="no artifact codec"):
            kind_of(object())

    def test_unknown_kind_rejected(self):
        with pytest.raises(ArtifactError, match="unknown artifact kind"):
            from_payload({"schema_version": 1, "kind": "wormhole"})

    def test_newer_schema_version_rejected(self):
        payload = to_payload(make_app())
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ArtifactError, match="upgrade"):
            from_payload(payload)

    def test_missing_envelope_rejected(self):
        with pytest.raises(ArtifactError, match="schema_version"):
            from_payload({"kind": "application"})
        with pytest.raises(ArtifactError, match="object"):
            from_payload(["not", "an", "object"])

    def test_malformed_body_reported_with_kind(self):
        payload = to_payload(make_app())
        del payload["graph"]
        with pytest.raises(ArtifactError, match="application"):
            from_payload(payload)

    def test_wrong_typed_container_is_malformed_field_codec(self):
        # "mapping" has the field codec: a str where a dict belongs
        payload = {
            "schema_version": SCHEMA_VERSION, "kind": "mapping",
            "application": "a", "architecture": "b",
            "actor_binding": {}, "implementations": "oops",
            "channels": {}, "static_orders": {},
        }
        with pytest.raises(ArtifactError, match="malformed 'mapping'"):
            from_payload(payload)

    def test_wrong_typed_container_is_malformed_hand_written(self):
        import repro.service.scheduler  # noqa: F401  (flow-response)

        payload = {
            "schema_version": SCHEMA_VERSION, "kind": "flow-response",
            "spec_name": "s", "request_key": "k", "mappings": "oops",
            "use_cases": None,
        }
        with pytest.raises(
            ArtifactError, match="malformed 'flow-response'"
        ):
            from_payload(payload)

    def test_every_registered_kind_is_kebab_case(self):
        for kind in registered_kinds():
            assert kind == kind.lower()
            assert " " not in kind
