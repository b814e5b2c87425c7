"""Tests for the synthetic-workload generator (repro.scenarios)."""

import json

import pytest

from repro.artifacts import canonical_json, from_payload, to_payload
from repro.flow.spec import FlowSpec, FlowSpecError, load_flow_spec
from repro.scenarios import (
    FAMILIES,
    ScenarioError,
    ScenarioSpec,
    build_scenario_application,
    build_scenario_graph,
    generate_scenarios,
    render_flow_spec_toml,
    scenario_architecture,
    scenario_flow_spec,
    scenario_strategies,
)
from repro.sdf import (
    check_well_formed,
    is_deadlock_free,
    repetition_vector,
)


class TestDeterminism:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_equal_specs_build_equal_graphs(self, family):
        spec = ScenarioSpec(family=family, seed=42, actors=8)
        again = ScenarioSpec(family=family, seed=42, actors=8)
        assert build_scenario_graph(spec) == build_scenario_graph(again)

    def test_different_seeds_differ(self):
        a = build_scenario_graph(ScenarioSpec(family="chain", seed=1))
        b = build_scenario_graph(ScenarioSpec(family="chain", seed=2))
        assert a != b

    def test_application_is_deterministic(self):
        spec = ScenarioSpec(family="mixed", seed=9, actors=10)
        one = build_scenario_application(spec)
        two = build_scenario_application(spec)
        assert one.graph == two.graph
        assert one.implementations == two.implementations

    def test_architecture_and_strategies_are_deterministic(self):
        spec = ScenarioSpec(family="splitjoin", seed=3)
        assert scenario_architecture(spec) == scenario_architecture(spec)
        assert scenario_strategies(spec) == scenario_strategies(spec)

    def test_batch_is_deterministic(self):
        assert generate_scenarios("all", 10, seed=5) == \
            generate_scenarios("all", 10, seed=5)

    def test_batch_names_are_unique(self):
        names = [s.name for s in generate_scenarios("all", 25, seed=1)]
        assert len(set(names)) == len(names)


class TestFamilies:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("seed", range(3))
    def test_generated_graphs_are_well_formed(self, family, seed):
        graph = build_scenario_graph(
            ScenarioSpec(family=family, seed=seed, actors=8)
        )
        check_well_formed(graph)
        assert repetition_vector(graph)
        assert is_deadlock_free(graph)

    def test_cyclic_family_has_a_cycle(self):
        graph = build_scenario_graph(
            ScenarioSpec(family="cyclic", seed=4, actors=6)
        )
        assert graph.edge("back").initial_tokens > 0

    def test_splitjoin_shape(self):
        graph = build_scenario_graph(
            ScenarioSpec(family="splitjoin", seed=4, actors=7)
        )
        q = repetition_vector(graph)
        assert q["src"] == q["snk"]

    def test_wcet_profile_bounds_execution_times(self):
        graph = build_scenario_graph(
            ScenarioSpec(
                family="chain", seed=8, actors=10,
                wcet_profile="uniform",
            )
        )
        for actor in graph:
            assert 20 <= actor.execution_time <= 40


class TestTypedErrors:
    def test_unknown_family(self):
        with pytest.raises(ScenarioError, match="unknown scenario family"):
            ScenarioSpec(family="torus", seed=1)

    def test_bad_seed(self):
        with pytest.raises(ScenarioError, match="seed"):
            ScenarioSpec(family="chain", seed=-1)

    def test_bad_actor_count(self):
        with pytest.raises(ScenarioError, match="actors"):
            ScenarioSpec(family="chain", seed=1, actors=1)

    def test_bad_profile(self):
        with pytest.raises(ScenarioError, match="wcet_profile"):
            ScenarioSpec(family="chain", seed=1, wcet_profile="spiky")

    def test_unknown_table_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown scenario key"):
            ScenarioSpec.from_table(
                {"family": "chain", "seed": 1, "actor": 5}
            )

    def test_batch_rejects_bad_family_and_count(self):
        with pytest.raises(ScenarioError, match="unknown scenario family"):
            generate_scenarios("torus", 3, seed=1)
        with pytest.raises(ScenarioError, match="count"):
            generate_scenarios("chain", 0, seed=1)


class TestSpecRoundTrip:
    def test_table_round_trip(self):
        spec = ScenarioSpec(
            family="diamond", seed=77, actors=12, max_rate=4,
            wcet_profile="wide", token_bytes=64, name="d77",
        )
        assert ScenarioSpec.from_table(spec.to_table()) == spec

    def test_artifact_round_trip_is_byte_identical(self):
        spec = ScenarioSpec(family="cyclic", seed=123, actors=5)
        payload = to_payload(spec)
        assert payload["kind"] == "scenario"
        clone = from_payload(payload)
        assert clone == spec
        assert canonical_json(to_payload(clone)) == \
            canonical_json(payload)


class TestFlowSpecBridge:
    def test_flow_spec_toml_round_trip(self, tmp_path):
        spec = ScenarioSpec(family="mixed", seed=31, actors=9)
        flow_spec = scenario_flow_spec(spec)
        path = tmp_path / "scenario.toml"
        path.write_text(render_flow_spec_toml(flow_spec))
        assert load_flow_spec(path) == flow_spec

    def test_document_round_trip(self):
        flow_spec = scenario_flow_spec(
            ScenarioSpec(family="chain", seed=2, actors=4)
        )
        assert FlowSpec.from_dict(flow_spec.to_document()) == flow_spec

    @pytest.mark.parametrize("family", FAMILIES)
    def test_batch_documents_are_replayable_request_bodies(self, family):
        """A batch's documents are byte-identical on every generation,
        distinct by name, and parse back to their specs: identical
        bodies are what lets a service coalesce duplicate requests."""
        def bodies():
            return [
                canonical_json(scenario_flow_spec(spec).to_document())
                for spec in generate_scenarios(family, 3, 11, actors=16)
            ]

        first = bodies()
        assert first == bodies()
        documents = [json.loads(body) for body in first]
        assert len({document["name"] for document in documents}) == 3
        for document in documents:
            assert FlowSpec.from_dict(document).to_document() == document

    def test_build_application_dispatches_to_generator(self):
        spec = ScenarioSpec(family="splitjoin", seed=6, actors=6)
        flow_spec = scenario_flow_spec(spec)
        app = flow_spec.build_application()
        assert app.graph == build_scenario_graph(spec)
        assert app.name == spec.effective_name

    def test_scenario_and_sequence_are_mutually_exclusive(self):
        with pytest.raises(FlowSpecError, match="either generated"):
            FlowSpec.from_dict(
                {
                    "app": {
                        "sequence": "gradient",
                        "scenario": {"family": "chain", "seed": 1},
                    }
                }
            )

    def test_bad_scenario_table_is_a_spec_error(self):
        with pytest.raises(FlowSpecError, match="scenario"):
            FlowSpec.from_dict(
                {"app": {"scenario": {"family": "nope", "seed": 1}}}
            )

    def test_interconnect_knobs_reach_the_platform(self):
        flow_spec = FlowSpec.from_dict(
            {
                "app": {"scenario": {"family": "chain", "seed": 1}},
                "architecture": {
                    "tiles": 2, "interconnect": "fsl",
                    "fsl_fifo_depth": 32,
                },
            }
        )
        arch = flow_spec.build_architecture()
        assert arch.interconnect.fifo_depth_words == 32

    def test_noc_knobs_reach_the_platform(self):
        flow_spec = FlowSpec.from_dict(
            {
                "app": {"scenario": {"family": "chain", "seed": 1}},
                "architecture": {
                    "tiles": 4, "interconnect": "noc",
                    "noc_wires_per_link": 64,
                    "noc_connection_wires": 4,
                },
            }
        )
        arch = flow_spec.build_architecture()
        assert arch.interconnect.wires_per_link == 64
        assert arch.interconnect.default_connection_wires == 4


class TestCLI:
    def test_generate_is_byte_identical_across_runs(self, tmp_path):
        from repro.cli import main

        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(
                [
                    "scenarios", "generate", "--seed", "7",
                    "--family", "all", "--count", "5",
                    "--out", str(out),
                ]
            ) == 0
        files_a = sorted(p.name for p in out_a.iterdir())
        files_b = sorted(p.name for p in out_b.iterdir())
        assert files_a == files_b and len(files_a) == 5
        for name in files_a:
            assert (out_a / name).read_bytes() == \
                (out_b / name).read_bytes()

    def test_generated_files_load_and_describe(self, tmp_path, capsys):
        from repro.cli import main

        assert main(
            [
                "scenarios", "generate", "--seed", "3",
                "--family", "diamond", "--count", "2",
                "--out", str(tmp_path),
            ]
        ) == 0
        capsys.readouterr()
        for path in tmp_path.iterdir():
            spec = load_flow_spec(path)
            assert spec.app.scenario is not None
            assert "generated diamond scenario" in spec.describe()

    def test_families_listing(self, capsys):
        from repro.cli import main

        assert main(["scenarios", "families"]) == 0
        out = capsys.readouterr().out.split()
        assert out == list(FAMILIES)
