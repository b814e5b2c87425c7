"""Library builds: sweep, persistence, FlowSession key sharing."""

from repro.artifacts import ArtifactStore, canonical_json, to_payload
from repro.flow.session import execute_spec
from repro.flow.spec import FlowSpec
from repro.runtime import LIBRARY_KIND, build_library, library_key_for

from tests.runtime.conftest import ARCH_FSL, flow_specs


class TestBuild:
    def test_cold_build_sweeps_every_prefix_size(self, fsl_builds):
        for spec, build in fsl_builds:
            # one mapping attempt per platform size, none resumed
            assert build.analyses == spec.architecture.tiles
            assert build.resumed == 0
            assert len(build.library) >= 1
            assert build.library.app_name == spec.app.effective_name

    def test_key_is_stable_across_document_round_trip(self, fsl_builds):
        for spec, build in fsl_builds:
            clone = FlowSpec.from_dict(spec.to_document())
            assert library_key_for(clone) == build.key


class TestPersistence:
    def test_warm_workspace_short_circuits_to_zero_analyses(
        self, tmp_path
    ):
        spec = flow_specs("chain", 1, 5, ARCH_FSL)[0]
        store = ArtifactStore(tmp_path / "artifacts")
        cold = build_library(spec, store=store)
        assert cold.analyses == spec.architecture.tiles
        assert store.get(LIBRARY_KIND, cold.key) is not None

        warm = build_library(spec, store=store)
        assert warm.analyses == 0
        assert warm.key == cold.key
        assert canonical_json(to_payload(warm.library)) == \
            canonical_json(to_payload(cold.library))

    def test_flow_session_results_resume_the_build(self, tmp_path):
        # a workspace that already ran the flow shares the exact
        # mapping-result keying, so the full-size analysis resumes
        spec = flow_specs("chain", 1, 5, ARCH_FSL)[0]
        execute_spec(spec, tmp_path)
        store = ArtifactStore(tmp_path / "artifacts")
        build = build_library(spec, store=store)
        assert build.resumed >= 1
        assert build.analyses + build.resumed == \
            spec.architecture.tiles
