"""Tests for the declarative FlowSpec layer (repro.flow.spec)."""

import json
from fractions import Fraction

import pytest

from repro.flow import DesignFlow, FlowSpec, FlowSpecError, load_flow_spec
from repro.mapping import StrategyTuple

MINIMAL = {"name": "minimal"}

FULL_TOML = """\
name = "mjpeg-ga"

[app]
sequence = "gradient"
quality = 80
frames = 2

[architecture]
tiles = 3
interconnect = "noc"
with_ca = false

[mapping]
constraint = "1/9000"
effort = "low"
binding = "ga"
buffer_policy = "exponential"
seed = 7

[mapping.fixed]
VLD = "tile0"
"""


class TestParsing:
    def test_defaults(self):
        spec = FlowSpec.from_dict(dict(MINIMAL))
        assert spec.name == "minimal"
        assert spec.app.sequence == "gradient"
        assert spec.architecture.tiles == 2
        assert spec.constraint is None
        assert spec.strategies == StrategyTuple()

    def test_full_toml_round_trip(self, tmp_path):
        path = tmp_path / "scenario.toml"
        path.write_text(FULL_TOML, encoding="utf-8")
        spec = load_flow_spec(path)
        assert spec.name == "mjpeg-ga"
        assert spec.app.quality == 80
        assert spec.architecture.interconnect == "noc"
        assert spec.constraint == Fraction(1, 9000)
        assert spec.effort == "low"
        assert spec.fixed == {"VLD": "tile0"}
        assert spec.strategies == StrategyTuple(
            binding="ga", buffer_policy="exponential", seed=7
        )

    def test_json_form(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(
            json.dumps(
                {
                    "name": "json-spec",
                    "architecture": {"tiles": 3},
                    "mapping": {"binding": "spiral"},
                }
            ),
            encoding="utf-8",
        )
        spec = load_flow_spec(path)
        assert spec.name == "json-spec"
        assert spec.strategies.binding == "spiral"

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(FlowSpecError, match="unknown top-level"):
            FlowSpec.from_dict({"name": "x", "aplication": {}})

    def test_unknown_mapping_key_rejected(self):
        with pytest.raises(FlowSpecError, match=r"unknown \[mapping\]"):
            FlowSpec.from_dict({"mapping": {"bindings": "ga"}})

    def test_unknown_strategy_rejected(self):
        with pytest.raises(FlowSpecError, match="registered"):
            FlowSpec.from_dict({"mapping": {"binding": "quantum"}})

    def test_bad_constraint_rejected(self):
        with pytest.raises(FlowSpecError, match="constraint"):
            FlowSpec.from_dict({"mapping": {"constraint": "fast"}})

    @pytest.mark.parametrize("value", ("0", "-1/5", -3))
    def test_nonpositive_constraint_rejected(self, value):
        with pytest.raises(FlowSpecError, match="constraint must be > 0"):
            FlowSpec.from_dict({"mapping": {"constraint": value}})
        with pytest.raises(FlowSpecError, match="constraint must be > 0"):
            FlowSpec.from_dict({"app": {"constraint": value}})

    def test_boolean_constraint_rejected(self):
        # bool subclasses int; `constraint = true` must not become
        # Fraction(1) (an absurd 1 iteration/cycle requirement)
        with pytest.raises(FlowSpecError, match="constraint"):
            FlowSpec.from_dict({"mapping": {"constraint": True}})

    def test_bad_effort_rejected(self):
        with pytest.raises(FlowSpecError, match="effort"):
            FlowSpec.from_dict({"mapping": {"effort": "heroic"}})

    def test_wrong_type_rejected(self):
        with pytest.raises(FlowSpecError, match="tiles"):
            FlowSpec.from_dict({"architecture": {"tiles": "three"}})

    @pytest.mark.parametrize("document, message", [
        ({"architecture": {"tiles": 0}}, "at least one tile"),
        ({"architecture": {"interconnect": "bus"}}, "interconnect 'bus'"),
        ({"architecture": {"fsl_fifo_depth": 0}}, "FIFO depth"),
        ({"architecture": {"data_kb": -4}}, "memory capacity"),
        ({"architecture": {"tiles": 3, "interconnect": "noc",
                           "noc_wires_per_link": 0}}, "wire counts"),
        ({"architecture": {"tiles": 3, "interconnect": "noc",
                           "noc_connection_wires": 0}}, "wire counts"),
        ({"app": {"quality": 0}}, "quality must be in 1..100"),
        ({"app": {"quality": -3}}, "quality must be in 1..100"),
        ({"app": {"quality": 101}}, "quality must be in 1..100"),
        ({"app": {"frames": 0}}, "frames must be >= 1"),
        ({"app": {"sequence": "sunset"}}, "unknown sequence 'sunset'"),
        ({"apps": [{"name": "a"}, {"name": "b", "frames": -1}]},
         "frames must be >= 1"),
    ])
    def test_malformed_values_rejected_at_parse_time(
        self, document, message
    ):
        with pytest.raises(FlowSpecError, match=message):
            FlowSpec.from_dict(document)

    @pytest.mark.parametrize("quality", (1, 100))
    def test_boundary_values_accepted(self, quality):
        app = {"sequence": "synthetic", "quality": quality, "frames": 1}
        assert FlowSpec.from_dict({"app": app}).app.quality == quality

    def test_unsupported_format_rejected(self, tmp_path):
        path = tmp_path / "scenario.yaml"
        path.write_text("name: nope", encoding="utf-8")
        with pytest.raises(FlowSpecError, match="unsupported"):
            load_flow_spec(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(FlowSpecError, match="cannot read"):
            load_flow_spec(tmp_path / "absent.toml")

    @pytest.mark.parametrize("name", (
        "deep.json", "deep.toml", "digits.json",
    ))
    def test_unparseable_document_rejected(self, tmp_path, name):
        # nesting beyond the parser's stack and integers beyond the
        # conversion limit are malformed input, not crashes
        text = {
            "deep.json": "[" * 200_000,
            "deep.toml": "a = " + "[" * 200_000,
            "digits.json": '{"name": ' + "9" * 5000 + "}",
        }[name]
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        with pytest.raises(FlowSpecError, match="invalid"):
            load_flow_spec(path)

    def test_describe_mentions_strategies(self):
        spec = FlowSpec.from_dict(
            {"name": "d", "mapping": {"binding": "spiral"}}
        )
        text = spec.describe()
        assert "spiral" in text
        assert "d" in text


class TestRealization:
    def test_build_architecture_honours_template_params(self):
        spec = FlowSpec.from_dict(
            {
                "architecture": {
                    "tiles": 3,
                    "interconnect": "fsl",
                    "slave_data_kb": 64,
                }
            }
        )
        arch = spec.build_architecture()
        assert len(arch.tiles) == 3
        assert arch.tile("tile1").data_memory.capacity_bytes == 64 * 1024

    def test_arch_spec_build_is_the_template_prefix(self):
        import dataclasses

        from repro.arch.template import architecture_from_template
        from repro.flow import architecture_fingerprint

        spec = FlowSpec.from_dict(
            {
                "architecture": {
                    "tiles": 4,
                    "interconnect": "noc",
                    "with_ca": False,
                    "data_kb": 16,
                    "noc_wires_per_link": 16,
                }
            }
        )
        assert architecture_fingerprint(
            spec.build_architecture()
        ) == architecture_fingerprint(spec.architecture.build())
        prefix = dataclasses.replace(spec.architecture, tiles=2).build()
        assert len(prefix.tiles) == 2
        assert architecture_fingerprint(prefix) == architecture_fingerprint(
            architecture_from_template(
                2,
                "noc",
                with_ca=False,
                data_kb=16,
                noc_wires_per_link=16,
            )
        )

    def test_from_spec_runs_the_flow(self, tmp_path):
        path = tmp_path / "scenario.toml"
        path.write_text(
            "\n".join(
                [
                    'name = "spec-flow"',
                    "[architecture]",
                    "tiles = 2",
                    "[mapping]",
                    'binding = "spiral"',
                    "[mapping.fixed]",
                    'VLD = "tile0"',
                ]
            ),
            encoding="utf-8",
        )
        flow = DesignFlow.from_spec(path)
        assert flow.pipeline is not None
        assert flow.pipeline.strategies.binding == "spiral"
        result = flow.run(iterations=4)
        assert result.guaranteed_throughput > 0
        assert result.mapping_result.mapping.actor_binding["VLD"] == "tile0"

    def test_from_spec_accepts_prebuilt_app(self):
        from tests.flow.test_dse_engine import build_chain_app

        spec = FlowSpec.from_dict({"architecture": {"tiles": 2}})
        flow = DesignFlow.from_spec(spec, app=build_chain_app())
        result = flow.run(measure=False)
        assert result.guaranteed_throughput > 0


class TestMultiApp:
    MULTI = {
        "name": "stb",
        "apps": [
            {"name": "decoder", "sequence": "gradient", "frames": 1,
             "constraint": "1/200000", "fixed": {"VLD": "tile0"}},
            {"name": "osd", "sequence": "checkerboard", "frames": 1},
        ],
        "architecture": {"tiles": 4},
        "mapping": {"constraint": "1/400000"},
    }

    def test_parses_apps_array(self):
        spec = FlowSpec.from_dict(dict(self.MULTI))
        assert spec.multi
        assert [a.effective_name for a in spec.apps] == ["decoder", "osd"]
        assert spec.app.sequence == "gradient"  # back-compat alias

    def test_per_app_overrides_fall_back_to_spec_level(self):
        spec = FlowSpec.from_dict(dict(self.MULTI))
        decoder, osd = spec.apps
        assert spec.constraint_for(decoder) == Fraction(1, 200000)
        assert spec.constraint_for(osd) == Fraction(1, 400000)
        assert spec.fixed_for(decoder) == {"VLD": "tile0"}
        assert spec.fixed_for(osd) is None

    def test_single_app_spec_is_not_multi(self):
        spec = FlowSpec.from_dict({"app": {"sequence": "gradient"}})
        assert not spec.multi
        assert spec.apps == (spec.app,)

    def test_app_and_apps_together_rejected(self):
        with pytest.raises(FlowSpecError, match="both"):
            FlowSpec.from_dict(
                {"app": {}, "apps": [{"sequence": "gradient"}]}
            )

    def test_empty_apps_rejected(self):
        with pytest.raises(FlowSpecError, match="at least one"):
            FlowSpec.from_dict({"apps": []})

    def test_duplicate_use_case_names_rejected(self):
        with pytest.raises(FlowSpecError, match="distinct"):
            FlowSpec.from_dict(
                {"apps": [{"sequence": "gradient"},
                          {"sequence": "gradient"}]}
            )

    def test_unknown_apps_key_rejected(self):
        with pytest.raises(FlowSpecError, match=r"\[\[apps\]\]"):
            FlowSpec.from_dict(
                {"apps": [{"sequence": "gradient", "quallity": 3}]}
            )

    def test_toml_array_of_tables_form(self, tmp_path):
        path = tmp_path / "multi.toml"
        path.write_text(
            "\n".join([
                'name = "multi"',
                "[[apps]]",
                'name = "decoder"',
                'sequence = "gradient"',
                "frames = 1",
                "[apps.fixed]",
                'VLD = "tile0"',
                "[[apps]]",
                'name = "osd"',
                'sequence = "checkerboard"',
                "frames = 1",
                "[architecture]",
                "tiles = 4",
            ]),
            encoding="utf-8",
        )
        spec = load_flow_spec(path)
        assert spec.multi
        assert spec.apps[0].fixed == {"VLD": "tile0"}
        assert spec.apps[1].fixed is None

    def test_build_application_refuses_multi(self):
        spec = FlowSpec.from_dict(dict(self.MULTI))
        with pytest.raises(FlowSpecError, match="FlowSession"):
            spec.build_application()
        apps = spec.build_applications()
        assert [a.name for a in apps] == ["decoder", "osd"]

    def test_describe_lists_every_use_case(self):
        spec = FlowSpec.from_dict(dict(self.MULTI))
        text = spec.describe()
        assert "use-case 'decoder'" in text
        assert "use-case 'osd'" in text

    def test_from_spec_honours_per_app_overrides(self):
        spec = FlowSpec.from_dict({
            "name": "pinned",
            "app": {"sequence": "gradient", "frames": 1,
                    "constraint": "1/9000",
                    "fixed": {"VLD": "tile0"}},
            "architecture": {"tiles": 2},
        })
        flow = DesignFlow.from_spec(spec)
        assert flow.constraint == Fraction(1, 9000)
        assert flow.fixed == {"VLD": "tile0"}


class TestDocumentRoundTrip:
    CASES = (
        {"name": "bare"},
        {
            "name": "rich",
            "app": {"sequence": "gradient", "frames": 1, "quality": 80,
                    "constraint": "1/9000", "fixed": {"VLD": "tile0"}},
            "architecture": {"tiles": 3, "interconnect": "noc",
                             "with_ca": True, "slave_data_kb": 64},
            "mapping": {"binding": "spiral", "effort": "high",
                        "constraint": "1/8000", "seed": 7,
                        "fixed": {"IDCT": "tile1"}},
        },
        {
            "name": "multi",
            "apps": [
                {"name": "decoder", "sequence": "gradient", "frames": 1,
                 "fixed": {"VLD": "tile0"}},
                {"name": "osd", "sequence": "checkerboard", "frames": 1},
            ],
            "architecture": {"tiles": 4},
        },
    )

    def test_to_document_is_the_inverse_of_from_dict(self):
        """The service client ships specs as documents; nothing may be
        lost or invented on the way through."""
        for case in self.CASES:
            spec = FlowSpec.from_dict(dict(case))
            document = spec.to_document()
            assert FlowSpec.from_dict(document) == spec
            # the document survives a JSON round trip untouched
            assert json.loads(json.dumps(document)) == document

    def test_document_keeps_the_request_key(self):
        from repro.flow import flow_request_key

        for case in self.CASES:
            spec = FlowSpec.from_dict(dict(case))
            again = FlowSpec.from_dict(spec.to_document())
            assert flow_request_key(again) == flow_request_key(spec)
