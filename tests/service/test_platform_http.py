"""The /v1/platform surface: admission, departure, occupancy."""

import dataclasses
import threading

import pytest

from repro.artifacts import ArtifactStore
from repro.flow.spec import ArchSpec
from repro.runtime import build_library
from repro.runtime.journal import PlatformJournal
from repro.scenarios import generate_scenarios, scenario_flow_spec
from repro.service import FlowServiceClient, ServiceClientError, serve

ARCH = ArchSpec(tiles=2, interconnect="fsl")


@pytest.fixture(scope="module")
def specs():
    return [
        scenario_flow_spec(s, architecture=ARCH)
        for s in generate_scenarios("chain", 3, 9)
    ]


@pytest.fixture
def service(tmp_path, specs):
    # a warm workspace: libraries for the first two apps are prebuilt
    store = ArtifactStore(tmp_path / "ws" / "artifacts")
    for spec in specs[:2]:
        build_library(spec, store=store)
    server = serve(tmp_path / "ws", port=0, jobs=2, max_queue=8)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    server.scheduler.close()
    thread.join(timeout=10)


@pytest.fixture
def client(service):
    return FlowServiceClient(service.url, timeout=60.0)


class TestPlatformEndpoints:
    def test_unconfigured_platform_reports_so(self, client):
        assert client.platform_status() == {"configured": False}
        assert client.health()["platform"] == {"configured": False}

    def test_admission_round_trip(self, client, specs):
        first = client.platform_admit(specs[0])
        assert first["app_id"].startswith("app-")
        assert first["source"] == "library"
        assert first["analyses"] == 0
        second = client.platform_admit(specs[1])
        assert set(first["tiles"]).isdisjoint(second["tiles"])

        status = client.platform_status()
        assert status["configured"] is True
        assert [a["id"] for a in status["apps"]] == \
            [first["app_id"], second["app_id"]]
        assert status["residual"]["free_tiles"] == []

        health = client.health()["platform"]
        assert health["apps"] == 2
        assert health["residual_tiles"] == 0
        assert health["counters"]["admissions"] == 2
        assert health["counters"]["analyses"] == 0

    def test_infeasible_admission_answers_409(self, client, specs):
        client.platform_admit(specs[0])
        client.platform_admit(specs[1])
        before = client.platform_status()
        with pytest.raises(ServiceClientError) as outcome:
            client.platform_admit(specs[2])
        assert outcome.value.status == 409
        # the rejection did not disturb the running applications
        after = client.platform_status()
        assert after["apps"] == before["apps"]
        assert after["residual"] == before["residual"]
        assert after["counters"]["rejections"] == \
            before["counters"]["rejections"] + 1

    def test_departure_frees_capacity_and_migrates(self, client, specs):
        first = client.platform_admit(specs[0])
        second = client.platform_admit(specs[1])
        outcome = client.platform_depart(first["app_id"], migrate=True)
        assert outcome["departed"] is True
        assert set(outcome["freed_tiles"]) == set(first["tiles"])
        status = client.platform_status()
        assert [a["id"] for a in status["apps"]] == [second["app_id"]]

    def test_unknown_app_answers_404(self, client, specs):
        client.platform_admit(specs[0])
        with pytest.raises(ServiceClientError) as outcome:
            client.platform_depart("app-424242")
        assert outcome.value.status == 404

    def test_malformed_spec_answers_400(self, client):
        with pytest.raises(ServiceClientError) as outcome:
            client.platform_admit({"nonsense": True})
        assert outcome.value.status == 400

    def test_architecture_conflict_answers_409(self, client, specs):
        client.platform_admit(specs[0])
        other = scenario_flow_spec(
            generate_scenarios("chain", 1, 9)[0],
            architecture=ArchSpec(tiles=4, interconnect="noc"),
        )
        with pytest.raises(ServiceClientError) as outcome:
            client.platform_admit(other)
        assert outcome.value.status == 409

    @pytest.mark.parametrize("migrate", ("false", 1))
    def test_non_boolean_migrate_answers_400(self, client, specs, migrate):
        first = client.platform_admit(specs[0])
        client.platform_admit(specs[1])
        before = client.platform_status()
        with pytest.raises(ServiceClientError) as outcome:
            client._json(
                "POST", f"/v1/platform/apps/{first['app_id']}/depart",
                body={"migrate": migrate},
            )
        assert outcome.value.status == 400
        assert "'migrate' must be JSON true or false" in str(outcome.value)
        # the rejected departure left the platform untouched
        assert client.platform_status() == before

    def test_unreplayable_journal_answers_500(self, client, tmp_path):
        store = ArtifactStore(tmp_path / "ws" / "artifacts")
        journal = PlatformJournal(store)
        journal.append(
            "configure", {"architecture": dataclasses.asdict(ARCH)}
        )
        journal.append(
            "depart", {"app_id": "app-000009", "migrate": False}
        )
        with pytest.raises(ServiceClientError) as outcome:
            client.platform_status()
        assert outcome.value.status == 500
        assert "platform journal event 1 (depart)" in str(outcome.value)
