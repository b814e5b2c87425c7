"""Tests for the command-line interface."""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.sdf import SDFGraph
from repro.sdf.buffers import BufferDistribution, add_buffer_edges
from repro.sdf.io_sdf3 import save_graph


@pytest.fixture
def graph_file(tmp_path):
    g = SDFGraph("cli_demo")
    g.add_actor("A", execution_time=10)
    g.add_actor("B", execution_time=20)
    g.add_edge("ab", "A", "B", token_size=4)
    bounded = add_buffer_edges(g, BufferDistribution({"ab": 2}))
    path = tmp_path / "graph.xml"
    save_graph(bounded, path)
    return str(path)


class TestAnalyze:
    def test_reports_vector_and_throughput(self, graph_file, capsys):
        assert main(["analyze", graph_file]) == 0
        out = capsys.readouterr().out
        assert "repetition vector" in out
        assert "deadlock-free: yes" in out
        assert "throughput" in out

    def test_deadlocked_graph_reported(self, tmp_path, capsys):
        g = SDFGraph("dead")
        g.add_actor("A", execution_time=1)
        g.add_actor("B", execution_time=1)
        g.add_edge("ab", "A", "B")
        g.add_edge("ba", "B", "A")
        path = tmp_path / "dead.xml"
        save_graph(g, path)
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "deadlock-free: NO" in out

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "nope.xml"
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read SDF graph")
        assert str(path) in err

    def test_non_xml_file_fails_cleanly(self, tmp_path, capsys):
        path = tmp_path / "graph.xml"
        path.write_text("not <xml", encoding="utf-8")
        assert main(["analyze", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{path} is not an SDF3 XML file" in err

    def test_directory_fails_cleanly(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path)]) == 1
        assert str(tmp_path) in capsys.readouterr().err

    def test_json_output_includes_mapping_result(self, graph_file, capsys):
        from fractions import Fraction

        assert main(
            ["analyze", graph_file, "--json", "--tiles", "2"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["deadlock_free"] is True
        assert payload["repetition_vector"] == {"A": 1, "B": 1}
        assert payload["throughput"]["period_cycles"] > 0
        mapping = payload["mapping"]
        assert mapping["kind"] == "mapping-result"
        assert set(mapping["mapping"]["actor_binding"]) == {"A", "B"}
        assert Fraction(mapping["throughput"]["throughput"]) > 0
        for channel in mapping["mapping"]["channels"].values():
            total = (
                channel["capacity"]
                + channel["alpha_src"] + channel["alpha_dst"]
            )
            assert total > 0

    def test_json_mapping_handles_pre_bounded_graphs(self, tmp_path,
                                                     capsys):
        """Graphs saved with buffer back-edges must still map: the CLI
        strips the ``buf__`` credit edges (the mapping flow allocates
        its own capacities) instead of colliding with the bound graph's
        modeling edges on intra-tile placements."""
        g = SDFGraph("bounded3")
        for name, t in (("A", 10), ("B", 20), ("C", 15)):
            g.add_actor(name, execution_time=t)
        g.add_edge("ab", "A", "B", token_size=4)
        g.add_edge("bc", "B", "C", token_size=4)
        bounded = add_buffer_edges(
            g, BufferDistribution({"ab": 2, "bc": 2})
        )
        path = tmp_path / "bounded.xml"
        save_graph(bounded, path)
        assert main(["analyze", str(path), "--json", "--tiles", "1"]) == 0
        payload = json.loads(capsys.readouterr().out)
        mapping = payload["mapping"]
        assert "error" not in mapping
        assert set(mapping["mapping"]["actor_binding"]) == {"A", "B", "C"}
        assert set(mapping["mapping"]["channels"]) == {"ab", "bc"}

    def test_json_output_for_deadlocked_graph(self, tmp_path, capsys):
        g = SDFGraph("dead")
        g.add_actor("A", execution_time=1)
        g.add_actor("B", execution_time=1)
        g.add_edge("ab", "A", "B")
        g.add_edge("ba", "B", "A")
        path = tmp_path / "dead.xml"
        save_graph(g, path)
        assert main(["analyze", str(path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["deadlock_free"] is False
        assert "throughput" not in payload
        assert "mapping" not in payload


class TestDemo:
    def test_runs_case_study(self, capsys, tmp_path):
        code = main(
            ["demo", "gradient", "--tiles", "3", "--iterations", "6",
             "--output", str(tmp_path)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "guaranteed" in out
        assert "measured" in out
        assert "project written" in out
        assert any(tmp_path.iterdir())

    def test_unknown_sequence_errors(self, capsys):
        assert main(["demo", "nonsense"]) == 1
        err = capsys.readouterr().err
        assert "unknown sequence" in err


class TestRunSpec:
    def test_runs_toml_scenario(self, tmp_path, capsys):
        spec = tmp_path / "scenario.toml"
        spec.write_text(
            "\n".join(
                [
                    'name = "cli-spec"',
                    "[architecture]",
                    "tiles = 2",
                    "[mapping]",
                    'binding = "spiral"',
                    'buffer_policy = "exponential"',
                    "[mapping.fixed]",
                    'VLD = "tile0"',
                ]
            ),
            encoding="utf-8",
        )
        code = main(["run", "--spec", str(spec), "--iterations", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "cli-spec" in out
        assert "binding=spiral" in out
        assert "guaranteed" in out
        assert "measured" in out

    def test_bad_spec_fails_cleanly(self, tmp_path, capsys):
        spec = tmp_path / "scenario.toml"
        spec.write_text('[mapping]\nbinding = "quantum"\n',
                        encoding="utf-8")
        assert main(["run", "--spec", str(spec)]) == 1
        err = capsys.readouterr().err
        assert "quantum" in err

    def test_malformed_architecture_fails_cleanly(self, tmp_path, capsys):
        spec = tmp_path / "scenario.toml"
        spec.write_text("[architecture]\ntiles = 0\n", encoding="utf-8")
        assert main(["run", "--spec", str(spec)]) == 1
        assert "at least one tile" in capsys.readouterr().err

    def test_missing_spec_fails_cleanly(self, tmp_path, capsys):
        assert main(["run", "--spec", str(tmp_path / "none.toml")]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_deeply_nested_spec_fails_cleanly(self, tmp_path, capsys):
        spec = tmp_path / "deep.json"
        spec.write_text("[" * 200_000, encoding="utf-8")
        assert main(["run", "--spec", str(spec)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: invalid JSON flow spec")


class TestDSE:
    def test_prints_pareto_table(self, capsys):
        assert main(["dse", "gradient", "--max-tiles", "2"]) == 0
        out = capsys.readouterr().out
        assert "1t/fsl" in out
        assert "pareto" in out

    def test_strategy_flags(self, capsys):
        code = main(
            ["explore", "gradient", "--max-tiles", "2",
             "--binding", "spiral", "--buffer-policy", "exponential",
             "--effort", "low"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "binding=spiral" in out

    def test_unknown_binding_rejected(self):
        with pytest.raises(SystemExit):
            main(["explore", "--binding", "quantum"])


def test_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_loadtest_command_is_retired(capsys):
    # perfbench/serve.py is the one load driver
    with pytest.raises(SystemExit) as outcome:
        main(["loadtest", "--url", "http://127.0.0.1:1"])
    assert outcome.value.code == 2
    assert "invalid choice: 'loadtest'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["demo", "gradient", "--tiles", "1", "--iterations", "1", "--output"],
    ["run", "--spec", "{spec}", "--iterations", "1", "--output"],
    ["scenarios", "generate", "--seed", "1", "--count", "1", "--out"],
], ids=["demo", "run", "scenarios"])
def test_output_onto_a_file_fails_cleanly(argv, tmp_path, capsys):
    spec = tmp_path / "scenario.toml"
    spec.write_text(
        '[architecture]\ntiles = 1\n[mapping.fixed]\nVLD = "tile0"\n',
        encoding="utf-8",
    )
    target = tmp_path / "taken"
    target.write_text("", encoding="utf-8")
    argv = [arg.format(spec=spec) for arg in argv] + [str(target)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith(
        f"error: cannot write {target}: "
    )


class TestMaxIterationsPlumbing:
    def test_analyze_accepts_budget(self, graph_file, capsys):
        assert main(
            ["analyze", graph_file, "--max-iterations", "50000"]
        ) == 0
        assert "throughput:" in capsys.readouterr().out

    def test_analyze_rejects_nonpositive_budget(self, graph_file, capsys):
        assert main(["analyze", graph_file, "--max-iterations", "0"]) == 1
        assert "--max-iterations" in capsys.readouterr().err

    def test_analyze_json_carries_budget_into_mapping(self, graph_file,
                                                      capsys):
        assert main(
            ["analyze", graph_file, "--json", "--max-iterations", "20000"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "error" not in payload["mapping"]

    def test_analyze_json_throughput_section(self, graph_file, capsys):
        assert main(["analyze", graph_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert sorted(payload["throughput"]) == [
            "iterations_per_cycle", "per_mega_cycle", "period_cycles",
        ]

    @pytest.mark.parametrize("engine", ("auto", "analytic", "vectorized"))
    def test_analyze_has_no_engine_pin(self, graph_file, engine):
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", graph_file, "--engine", engine])
        assert exit_info.value.code == 2  # argparse usage error

    def test_explore_has_no_engine_pin(self):
        with pytest.raises(SystemExit) as exit_info:
            main(["explore", "gradient", "--max-tiles", "1",
                  "--engine", "vectorized"])
        assert exit_info.value.code == 2

    def test_explore_budget_override(self, capsys):
        code = main(
            ["explore", "gradient", "--max-tiles", "1",
             "--effort", "low", "--max-iterations", "20000"]
        )
        assert code == 0

    @pytest.mark.parametrize("value", ("-1/5", "0"))
    def test_explore_rejects_nonpositive_constraint(self, value, capsys):
        code = main(
            ["explore", "gradient", "--max-tiles", "1",
             f"--constraint={value}"]
        )
        assert code == 1
        assert "--constraint must be > 0" in capsys.readouterr().err

    def test_explore_rejects_an_empty_sweep(self, capsys):
        code = main(["explore", "gradient", "--max-tiles", "0"])
        assert code == 1
        assert "--max-tiles" in capsys.readouterr().err

    def test_explore_rejects_nonpositive_budget(self, capsys):
        code = main(
            ["explore", "gradient", "--max-tiles", "1",
             "--max-iterations", "-3"]
        )
        assert code == 1
        assert "--max-iterations" in capsys.readouterr().err


class TestEffortIterationSuffix:
    def test_of_parses_override(self):
        from repro.mapping import MappingEffort

        effort = MappingEffort.of("low+it12345")
        assert effort.max_iterations == 12345
        assert effort.max_buffer_rounds == (
            MappingEffort.of("low").max_buffer_rounds
        )
        # the derived name round-trips through string plumbing
        assert MappingEffort.of(effort.name) == effort

    def test_with_iterations_is_stable(self):
        from repro.mapping import MappingEffort

        base = MappingEffort.of("normal")
        assert base.with_iterations(base.max_iterations) is base
        derived = base.with_iterations(99)
        assert derived.with_iterations(77).name == "normal+it77"

    def test_bad_overrides_rejected(self):
        from repro.mapping import MappingEffort

        with pytest.raises(ValueError, match="positive integer"):
            MappingEffort.of("low+itxyz")
        with pytest.raises(ValueError, match="unknown mapping effort"):
            MappingEffort.of("turbo+it5")
        with pytest.raises(ValueError, match=">= 1"):
            MappingEffort.of("low").with_iterations(0)


class TestEffortCacheToken:
    @pytest.mark.parametrize("name, token", (
        ("low", "low:4:4000"),
        ("normal", "normal:12:10000"),
        ("high", "high:24:40000"),
        ("normal+it50000", "normal+it50000:12:50000"),
        # an override equal to the preset's budget is the preset
        ("low+it4000", "low:4:4000"),
    ))
    def test_tokens_are_pinned(self, name, token):
        """Mapping-result and library keys embed these literals; a
        change here invalidates every persisted workspace."""
        from repro.mapping import MappingEffort

        assert MappingEffort.of(name).cache_token() == token

    def test_engine_suffix_is_gone(self):
        from repro.mapping import MappingEffort

        with pytest.raises(ValueError, match="unknown suffix"):
            MappingEffort.of("normal+engvectorized")
        with pytest.raises(ValueError, match="unknown suffix"):
            MappingEffort.of("low+zz5")


class TestCanonicalPayloads:
    def test_analyze_json_embeds_canonical_mapping_artifact(
        self, graph_file, capsys
    ):
        assert main(["analyze", graph_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        mapping = payload["mapping"]
        # the canonical envelope...
        assert mapping["kind"] == "mapping-result"
        assert mapping["schema_version"] >= 1
        assert mapping["mapping"]["kind"] == "mapping"
        assert mapping["throughput"]["kind"] == "throughput-result"
        # ...decodes back to a full MappingResult
        from repro.artifacts import from_payload
        from repro.mapping.spec import MappingResult

        result = from_payload(mapping)
        assert isinstance(result, MappingResult)
        assert set(result.mapping.actor_binding) == {"A", "B"}
        # ...and the pre-schema flat aliases (deprecated in the release
        # that introduced the envelope) are gone for good
        for alias in (
            "architecture", "binding", "static_orders", "channels",
            "guaranteed_throughput", "guaranteed_per_mega_cycle",
            "constraint_met",
        ):
            assert alias not in mapping

    def test_explore_json_emits_exploration_artifact(self, capsys):
        code = main(
            ["explore", "gradient", "--max-tiles", "2", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "exploration-result"
        from repro.artifacts import from_payload
        from repro.flow import ExplorationResult

        result = from_payload(payload)
        assert isinstance(result, ExplorationResult)
        assert result.points

    def test_explore_csv_matches_canonical_payload(self, capsys):
        assert main(
            ["explore", "gradient", "--max-tiles", "2", "--csv"]
        ) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        header = rows[0].split(",")
        assert header[0] == "label"
        assert main(
            ["explore", "gradient", "--max-tiles", "2", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        labels = [p["label"] for p in payload["points"]]
        assert [r.split(",")[0] for r in rows[1:]] == labels

    def test_run_json_emits_flow_result_artifact(self, tmp_path, capsys):
        spec = tmp_path / "scenario.toml"
        spec.write_text(
            "\n".join([
                'name = "json-run"',
                "[app]",
                "frames = 1",
                "[architecture]",
                "tiles = 2",
                "[mapping.fixed]",
                'VLD = "tile0"',
            ]),
            encoding="utf-8",
        )
        assert main(
            ["run", "--spec", str(spec), "--iterations", "4", "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "flow-result"
        from repro.artifacts import from_payload

        result = from_payload(payload)
        assert result.measured is not None
        assert result.project.files


class TestRunWorkspace:
    def test_run_with_workspace_resumes(self, tmp_path, capsys):
        spec = tmp_path / "scenario.toml"
        spec.write_text(
            "\n".join([
                'name = "ws-run"',
                "[app]",
                "frames = 1",
                "[architecture]",
                "tiles = 2",
                "[mapping.fixed]",
                'VLD = "tile0"',
            ]),
            encoding="utf-8",
        )
        ws = tmp_path / "ws"
        assert main(["run", "--spec", str(spec),
                     "--workspace", str(ws)]) == 0
        first = capsys.readouterr().out
        assert "0/3 stage(s) resumed" in first
        assert main(["run", "--spec", str(spec),
                     "--workspace", str(ws)]) == 0
        second = capsys.readouterr().out
        assert "3/3 stage(s) resumed" in second

    def test_multi_app_spec_requires_workspace(self, tmp_path, capsys):
        spec = tmp_path / "multi.toml"
        spec.write_text(
            "\n".join([
                "[[apps]]",
                'sequence = "gradient"',
                "frames = 1",
                "[[apps]]",
                'sequence = "checkerboard"',
                "frames = 1",
                "[architecture]",
                "tiles = 4",
            ]),
            encoding="utf-8",
        )
        assert main(["run", "--spec", str(spec)]) == 1
        assert "--workspace" in capsys.readouterr().err


class TestBatch:
    def write_specs(self, tmp_path):
        a = tmp_path / "a.toml"
        a.write_text(
            "\n".join([
                'name = "batch-a"',
                "[app]",
                "frames = 1",
                "[architecture]",
                "tiles = 2",
                "[mapping.fixed]",
                'VLD = "tile0"',
            ]),
            encoding="utf-8",
        )
        b = tmp_path / "b.toml"
        b.write_text(
            "\n".join([
                'name = "batch-b"',
                "[[apps]]",
                'name = "decoder"',
                'sequence = "gradient"',
                "frames = 1",
                "[[apps]]",
                'name = "osd"',
                'sequence = "checkerboard"',
                "frames = 1",
                "[architecture]",
                "tiles = 4",
            ]),
            encoding="utf-8",
        )
        return a, b

    def test_batch_reports_json_and_resumes(self, tmp_path, capsys):
        a, b = self.write_specs(tmp_path)
        ws = tmp_path / "ws"
        code = main(["batch", str(a), str(b),
                     "--workspace", str(ws), "--jobs", "2"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["kind"] == "batch-report"
        assert report["ok"] is True
        assert report["resume_rate"] == 0.0
        assert len(report["entries"]) == 2
        # second run over the same workspace resumes everything
        assert main(["batch", str(a), str(b),
                     "--workspace", str(ws)]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["resume_rate"] == 1.0
        assert (ws / "batch-report.json").exists()

    def test_batch_table_output(self, tmp_path, capsys):
        a, _ = self.write_specs(tmp_path)
        assert main(["batch", str(a), "--workspace",
                     str(tmp_path / "ws"), "--table"]) == 0
        out = capsys.readouterr().out
        assert "batch-a" in out
        assert "resumed" in out

    def test_failing_spec_fails_the_batch_exit_code(self, tmp_path,
                                                    capsys):
        a, _ = self.write_specs(tmp_path)
        broken = tmp_path / "broken.toml"
        broken.write_text('[mapping]\nbinding = "quantum"\n',
                          encoding="utf-8")
        code = main(["batch", str(a), str(broken),
                     "--workspace", str(tmp_path / "ws")])
        assert code == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        failed = [e for e in report["entries"] if not e["ok"]]
        assert failed and "quantum" in failed[0]["error"]


class TestServe:
    def test_rejects_bad_bounds(self, tmp_path, capsys):
        ws = str(tmp_path / "ws")
        assert main(["serve", "--workspace", ws, "--jobs", "0"]) == 1
        assert "--jobs" in capsys.readouterr().err
        assert main(["serve", "--workspace", ws, "--max-queue", "0"]) == 1
        assert "--max-queue" in capsys.readouterr().err
        for port in ("70000", "-5"):
            assert main(["serve", "--workspace", ws, "--port", port]) == 1
            assert "--port must be in 0..65535" in capsys.readouterr().err
        # nothing was bound or created before validation failed
        assert not (tmp_path / "ws").exists()

    def test_platform_refuses_a_url_that_is_not_http(self, capsys):
        assert main(["platform", "status", "--url", "notaurl"]) == 1
        assert "error: service URL 'notaurl'" in capsys.readouterr().err

    @pytest.mark.skipif(not os.path.isdir("/proc"),
                        reason="reads child processes from /proc")
    def test_sigterm_stops_process_workers(self, tmp_path):
        """A plain ``kill`` goes through the same clean-up as Ctrl-C: the
        server exits 0 and leaves no worker process behind."""
        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--quiet",
             "--workspace", str(tmp_path / "ws"), "--port", "0",
             "--backend", "process", "--jobs", "2"],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        children = []
        try:
            assert "flow service on" in server.stdout.readline()
            deadline = time.monotonic() + 30
            while len(children) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
                children = children_of(server.pid)
            assert len(children) >= 2
            server.send_signal(signal.SIGTERM)
            assert server.wait(timeout=30) == 0
            deadline = time.monotonic() + 5
            while any(map(is_alive, children)) and (
                time.monotonic() < deadline
            ):
                time.sleep(0.05)
            assert not any(map(is_alive, children))
        finally:
            for pid in [server.pid, *children]:
                if is_alive(pid):
                    os.kill(pid, signal.SIGKILL)
            server.wait(timeout=10)
            server.stdout.close()


def children_of(pid):
    """The processes whose parent is ``pid``, from /proc."""
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.append(int(entry))
    return found


def is_alive(pid):
    """Whether ``pid`` runs (a zombie, exited but not reaped, does not)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


class TestRunFlagCompatibility:
    def write_spec(self, tmp_path):
        spec = tmp_path / "s.toml"
        spec.write_text(
            "\n".join([
                "[app]", "frames = 1",
                "[architecture]", "tiles = 2",
                "[mapping.fixed]", 'VLD = "tile0"',
            ]),
            encoding="utf-8",
        )
        return spec

    def test_json_with_output_keeps_stdout_parseable(self, tmp_path,
                                                     capsys):
        spec = self.write_spec(tmp_path)
        assert main(["run", "--spec", str(spec), "--iterations", "4",
                     "--json", "--output", str(tmp_path / "proj")]) == 0
        captured = capsys.readouterr()
        payload = json.loads(captured.out)  # a single JSON document
        assert payload["kind"] == "flow-result"
        assert "project written" in captured.err
        assert any((tmp_path / "proj").iterdir())

    def test_workspace_rejects_full_flow_flags(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        ws = str(tmp_path / "ws")
        assert main(["run", "--spec", str(spec), "--workspace", ws,
                     "--output", str(tmp_path / "proj")]) == 1
        assert "--output" in capsys.readouterr().err
        assert main(["run", "--spec", str(spec), "--workspace", ws,
                     "--iterations", "8"]) == 1
        assert "--iterations" in capsys.readouterr().err

    def test_workspace_collision_with_file_errors_cleanly(self, tmp_path,
                                                          capsys):
        spec = self.write_spec(tmp_path)
        blocker = tmp_path / "blocked"
        blocker.write_text("", encoding="utf-8")
        assert main(["run", "--spec", str(spec),
                     "--workspace", str(blocker)]) == 1
        assert "cannot create artifact workspace" in \
            capsys.readouterr().err


class TestPowerFlags:
    def test_analyze_reports_power_and_energy(self, graph_file, capsys):
        assert main(
            ["analyze", graph_file, "--power-budget", "400",
             "--energy-budget", "50", "--tech-node", "22"]
        ) == 0
        out = capsys.readouterr().out
        assert "power:" in out and "22 nm" in out
        assert "energy:" in out and "nJ/iteration" in out
        assert "within power budget (400.0 mW):" in out
        assert "within energy budget (50.00 nJ/iter):" in out

    def test_analyze_without_flags_has_no_power_lines(self, graph_file,
                                                      capsys):
        assert main(["analyze", graph_file]) == 0
        out = capsys.readouterr().out
        assert "power" not in out and "energy" not in out

    def test_analyze_json_power_section_is_opt_in(self, graph_file,
                                                  capsys):
        assert main(["analyze", graph_file, "--json"]) == 0
        assert "power" not in json.loads(capsys.readouterr().out)
        assert main(
            ["analyze", graph_file, "--json", "--tech-node", "45",
             "--power-budget", "1000"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        section = payload["power"]
        assert section["platform"]["kind"] == "power-estimate"
        assert section["application"]["kind"] == "energy-estimate"
        assert section["within_power_budget"] is True
        assert "within_energy_budget" not in section  # not requested

    def test_invalid_budget_rejected(self, graph_file, capsys):
        assert main(
            ["analyze", graph_file, "--power-budget", "lots"]
        ) == 1
        assert "--power-budget" in capsys.readouterr().err
        assert main(
            ["analyze", graph_file, "--energy-budget", "-5"]
        ) == 1
        assert "--energy-budget" in capsys.readouterr().err

    def test_unknown_tech_node_rejected(self, graph_file):
        with pytest.raises(SystemExit):
            main(["analyze", graph_file, "--tech-node", "7"])

    def test_explore_power_budget_prunes(self, capsys):
        assert main(
            ["explore", "gradient", "--max-tiles", "3",
             "--effort", "low", "--power-budget", "300"]
        ) == 0
        out = capsys.readouterr().out
        assert "over power budget" in out
        assert "nJ/iter" in out

    def test_explore_energy_binding_is_selectable(self, capsys):
        assert main(
            ["explore", "gradient", "--max-tiles", "2",
             "--effort", "low", "--binding", "energy",
             "--tech-node", "32"]
        ) == 0
        out = capsys.readouterr().out
        assert "nJ/iter" in out


class TestBackendFlags:
    def write_spec(self, tmp_path):
        path = tmp_path / "spec.toml"
        path.write_text(
            "\n".join([
                'name = "backend-cli"',
                "[app]",
                "frames = 1",
                "[architecture]",
                "tiles = 2",
                "[mapping.fixed]",
                'VLD = "tile0"',
            ]),
            encoding="utf-8",
        )
        return path

    def test_run_has_no_jobs_flag(self, tmp_path):
        # one session is one task: a worker count cannot change a run
        spec = self.write_spec(tmp_path)
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--spec", str(spec), "--jobs", "2"])
        assert exit_info.value.code == 2  # argparse usage error

    def test_run_and_batch_reject_nonpositive_constraint(self, tmp_path,
                                                         capsys):
        spec = tmp_path / "negative.toml"
        spec.write_text(
            self.write_spec(tmp_path).read_text(encoding="utf-8")
            + '\n[mapping]\nconstraint = "-1/5"\n',
            encoding="utf-8",
        )
        assert main(["run", "--spec", str(spec)]) == 1
        assert "constraint must be > 0" in capsys.readouterr().err
        assert main(
            ["batch", str(spec), "--workspace", str(tmp_path / "ws")]
        ) == 1
        assert "constraint must be > 0" in capsys.readouterr().out

    def test_batch_process_backend(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path)
        assert main(
            ["batch", str(spec), "--workspace", str(tmp_path / "ws"),
             "--jobs", "2", "--backend", "process"]
        ) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is True
        assert report["jobs"] == 2

    def test_explore_process_backend_matches_thread(self, capsys):
        argv = ["explore", "gradient", "--max-tiles", "2",
                "--effort", "low", "--csv"]
        assert main(argv) == 0
        thread = capsys.readouterr().out
        assert main(argv + ["--backend", "process", "--jobs", "2"]) == 0
        process = capsys.readouterr().out
        assert process == thread
