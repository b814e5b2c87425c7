"""Cross-backend byte-identity of session execution.

The tentpole guarantee of the process backend: the *artifacts* a flow
computes are a function of the spec alone, never of where the work ran.
A thread run and a process run of the same specs against fresh
workspaces must write byte-identical ``artifacts/`` trees.
"""

from pathlib import Path
from typing import Dict

import pytest

from repro.flow import run_batch
from repro.scenarios import generate_scenarios, scenario_flow_spec


@pytest.fixture(scope="module")
def specs():
    return [
        scenario_flow_spec(spec)
        for spec in generate_scenarios("chain", 2, seed=93, actors=5)
    ]


def artifact_tree(workspace: Path) -> Dict[str, bytes]:
    """Relative path -> exact bytes of every artifact in a workspace."""
    root = workspace / "artifacts"
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*.json"))
    }


class TestRunBatchBackends:
    def test_process_batch_matches_thread_batch_byte_for_byte(
        self, tmp_path, specs
    ):
        thread_ws = tmp_path / "thread"
        process_ws = tmp_path / "process"
        thread_report = run_batch(specs, thread_ws, jobs=2)
        process_report = run_batch(
            specs, process_ws, jobs=2, backend="process"
        )
        assert thread_report.ok and process_report.ok
        thread_tree = artifact_tree(thread_ws)
        assert thread_tree, "thread run wrote no artifacts"
        assert artifact_tree(process_ws) == thread_tree

    def test_process_batch_reports_match_modulo_timing(
        self, tmp_path, specs
    ):
        thread = run_batch(specs, tmp_path / "a", jobs=1)
        process = run_batch(
            specs, tmp_path / "b", jobs=2, backend="process"
        )
        assert [e.name for e in thread.entries] == [
            e.name for e in process.entries
        ]
        assert [e.ok for e in thread.entries] == [
            e.ok for e in process.entries
        ]
        assert process.jobs == 2

    def test_spec_paths_ship_across_the_boundary(self, tmp_path, specs):
        from repro.scenarios import render_flow_spec_toml

        path = tmp_path / "spec.toml"
        path.write_text(
            render_flow_spec_toml(specs[0]), encoding="utf-8"
        )
        report = run_batch(
            [str(path)], tmp_path / "ws", jobs=1, backend="process"
        )
        assert report.ok
        assert report.entries[0].spec == str(path)

