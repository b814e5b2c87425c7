"""PlatformManager: admission, departure, migration, replay."""

import dataclasses

import pytest

import repro.runtime.manager as manager_module
from repro.artifacts import ArtifactStore
from repro.artifacts.schema import decode_fraction
from repro.exceptions import AdmissionError, PlatformError, UnknownAppError
from repro.flow.spec import ArchSpec
from repro.runtime import MigrationPolicy, PlatformManager
from repro.runtime.journal import PlatformJournal

from tests.runtime.conftest import ARCH_FSL, flow_specs


def managed(builds, store=None, policy=None):
    manager = PlatformManager(ARCH_FSL, store=store, policy=policy)
    for _, build in builds:
        manager.register_library(build.key, build.library)
    return manager


class TestAdmission:
    def test_library_admission_runs_zero_analyses(
        self, fsl_builds, monkeypatch
    ):
        # the acceptance criterion: admitting a library-covered app
        # must never re-analyze -- make any analysis attempt fatal
        def forbidden(*args, **kwargs):
            raise AssertionError(
                "admission of a library-covered app ran an analysis"
            )

        monkeypatch.setattr(
            manager_module, "map_application", forbidden
        )
        manager = managed(fsl_builds)
        for spec, _ in fsl_builds:
            decision = manager.admit(spec)
            assert decision["source"] == "library"
            assert decision["analyses"] == 0
        assert manager.counters.snapshot()["analyses"] == 0
        assert manager.counters.snapshot()["admissions"] == len(fsl_builds)

    def test_admissions_occupy_disjoint_tiles(self, fsl_builds):
        manager = managed(fsl_builds)
        seen = set()
        for spec, _ in fsl_builds:
            tiles = set(manager.admit(spec)["tiles"])
            assert not tiles & seen
            seen |= tiles

    def test_spiral_fallback_covers_unknown_apps(self, fsl_builds):
        manager = PlatformManager(ARCH_FSL)  # no libraries at all
        spec, _ = fsl_builds[0]
        decision = manager.admit(spec)
        assert decision["source"] == "spiral"
        assert decision["analyses"] == 1
        assert manager.counters.snapshot()["analyses"] == 1

    def test_full_platform_rejects_without_degrading_survivors(
        self, fsl_builds
    ):
        tiny = ArchSpec(tiles=1, interconnect="fsl")
        specs = flow_specs("splitjoin", 2, 3, tiny)
        manager = PlatformManager(tiny)
        first = manager.admit(specs[0])
        digest = manager.state_digest()
        with pytest.raises(AdmissionError):
            manager.admit(specs[1])
        # the rejection left the platform byte-identical
        assert manager.state_digest() == digest
        assert manager.counters.snapshot()["rejections"] == 1
        assert manager._apps[first["app_id"]].guarantee is not None

    def test_architecture_mismatch_is_rejected(self, fsl_builds):
        spec, _ = fsl_builds[0]
        other = PlatformManager(
            dataclasses.replace(ARCH_FSL, tiles=2)
        )
        with pytest.raises(AdmissionError, match="targets"):
            other.admit(spec)


class TestDeparture:
    def test_departure_releases_exactly_what_admission_claimed(
        self, fsl_builds
    ):
        manager = managed(fsl_builds)
        before = manager.residual.snapshot()
        admitted = [manager.admit(spec) for spec, _ in fsl_builds]
        for decision in admitted:
            outcome = manager.depart(decision["app_id"])
            assert outcome["freed_tiles"] == decision["tiles"]
        assert manager.residual.snapshot() == before
        assert manager.apps() == ()

    def test_unknown_app_raises_typed_error(self, fsl_builds):
        manager = managed(fsl_builds)
        with pytest.raises(UnknownAppError):
            manager.depart("app-999999")

    def test_departure_migrates_survivor_to_a_better_point(
        self, fsl_builds
    ):
        manager = managed(fsl_builds)
        first = manager.admit(fsl_builds[0][0])
        second = manager.admit(fsl_builds[1][0])
        outcome = manager.depart(first["app_id"], migrate=True)
        assert len(outcome["migrations"]) == 1
        moved = outcome["migrations"][0]
        assert moved["app_id"] == second["app_id"]
        # strictly better throughput, with the downtime accounted
        survivor = manager._apps[second["app_id"]]
        assert survivor.guarantee > decode_fraction(second["guarantee"])
        assert moved["downtime_cycles"] > 0
        assert manager.counters.snapshot()["migrations"] == 1

    def test_migration_policy_can_veto_every_move(self, fsl_builds):
        manager = managed(
            fsl_builds, policy=MigrationPolicy(enabled=False)
        )
        first = manager.admit(fsl_builds[0][0])
        manager.admit(fsl_builds[1][0])
        outcome = manager.depart(first["app_id"], migrate=True)
        assert outcome["migrations"] == []
        assert manager.counters.snapshot()["migrations"] == 0


class TestReplay:
    def test_journal_replays_to_byte_identical_state(
        self, fsl_builds, tmp_path
    ):
        store = ArtifactStore(tmp_path / "artifacts")
        manager = managed(fsl_builds, store=store)
        first = manager.admit(fsl_builds[0][0])
        manager.admit(fsl_builds[1][0])
        manager.admit(fsl_builds[0][0])
        manager.depart(first["app_id"], migrate=True)

        replayed = PlatformManager.open(store=store)
        assert replayed is not None
        assert replayed.state_digest() == manager.state_digest()
        # journaled transitions replay; rejections are not state
        for counter in ("admissions", "departures", "migrations"):
            assert replayed.counters.snapshot()[counter] == \
                manager.counters.snapshot()[counter]

    def test_replayed_status_differs_only_in_process_counts(
        self, fsl_builds, tmp_path
    ):
        # the contract CI's platform-smoke job checks across a restart:
        # rejections and analyses count one process's work and are not
        # journaled; every other status field replays
        def replayable(status):
            counters = {
                name: count
                for name, count in status["counters"].items()
                if name not in ("rejections", "analyses")
            }
            return {**status, "counters": counters}

        store = ArtifactStore(tmp_path / "artifacts")
        manager = managed(fsl_builds, store=store)
        first = manager.admit(fsl_builds[0][0])
        manager.admit(fsl_builds[1][0])
        unknown = flow_specs("splitjoin", 3, 3, ARCH_FSL)[2]
        assert manager.admit(unknown)["source"] == "spiral"
        with pytest.raises(AdmissionError):
            manager.admit(unknown)  # the platform is full
        manager.depart(first["app_id"], migrate=True)

        live = manager.status()
        replayed = PlatformManager.open(store=store).status()
        assert live["counters"]["analyses"] == 1
        assert live["counters"]["rejections"] == 1
        assert replayed["counters"]["analyses"] == 0
        assert replayed["counters"]["rejections"] == 0
        assert replayable(replayed) == replayable(live)

    def test_open_without_configuration_returns_none(self, tmp_path):
        assert PlatformManager.open(store=None) is None
        store = ArtifactStore(tmp_path / "artifacts")
        assert PlatformManager.open(store=store) is None

    def test_open_rejects_a_conflicting_architecture(
        self, fsl_builds, tmp_path
    ):
        store = ArtifactStore(tmp_path / "artifacts")
        PlatformManager(ARCH_FSL, store=store)
        with pytest.raises(AdmissionError, match="different"):
            PlatformManager.open(
                store=store,
                arch_spec=dataclasses.replace(ARCH_FSL, tiles=2),
            )

    def test_open_resumes_app_id_allocation(
        self, fsl_builds, tmp_path
    ):
        store = ArtifactStore(tmp_path / "artifacts")
        manager = managed(fsl_builds, store=store)
        first = manager.admit(fsl_builds[0][0])
        replayed = PlatformManager.open(store=store)
        for _, build in fsl_builds:
            replayed.register_library(build.key, build.library)
        second = replayed.admit(fsl_builds[1][0])
        assert second["app_id"] != first["app_id"]

    def test_constructing_on_a_journaled_store_replays_it(
        self, fsl_builds, tmp_path
    ):
        store = ArtifactStore(tmp_path / "artifacts")
        manager = managed(fsl_builds, store=store)
        manager.admit(fsl_builds[0][0])
        again = PlatformManager(ARCH_FSL, store=store)
        assert again.state_digest() == manager.state_digest()
        # the second construction journaled nothing, so the store
        # still opens to the same state
        assert len(again.journal) == 2
        replayed = PlatformManager.open(store=store)
        assert replayed.state_digest() == manager.state_digest()
        with pytest.raises(AdmissionError, match="different"):
            PlatformManager(
                dataclasses.replace(ARCH_FSL, tiles=2), store=store
            )

    @pytest.mark.parametrize("event, data, wrong", [
        ("depart", {"app_id": "app-000009", "migrate": False},
         "names 'app-000009', which is not running"),
        ("migrate", {"app_id": "app-000009", "point": {},
                     "placement": {}, "guarantee": "1/2"},
         "names 'app-000009', which is not running"),
        ("admit", {"app_id": "app-000001", "app_name": "a",
                   "source": "spiral", "placement": {},
                   "guarantee": "1/2", "constraint": None,
                   "library_key": None, "pinned": []},
         "lacks 'point'"),
        ("configure", {"architecture": dataclasses.asdict(ARCH_FSL)},
         "unknown platform journal event 1"),
    ])
    def test_unreplayable_events_raise_a_typed_error(
        self, tmp_path, event, data, wrong
    ):
        store = ArtifactStore(tmp_path / "artifacts")
        PlatformManager(ARCH_FSL, store=store)
        PlatformJournal(store).append(event, data)
        with pytest.raises(PlatformError) as raised:
            PlatformManager.open(store=store)
        # a broken journal is a server fault, not an unknown app (404)
        assert not isinstance(raised.value, UnknownAppError)
        message = str(raised.value)
        assert "event 1" in message and wrong in message

    def test_a_journal_must_start_with_its_configuration(self, tmp_path):
        store = ArtifactStore(tmp_path / "artifacts")
        PlatformJournal(store).append(
            "depart", {"app_id": "app-000001", "migrate": False}
        )
        for arch_spec in (None, ARCH_FSL):
            with pytest.raises(PlatformError, match="found 'depart'"):
                PlatformManager.open(store=store, arch_spec=arch_spec)


class TestJournalFirst:
    """A transition whose append fails leaves the live state equal to
    what the journal replays."""

    @staticmethod
    def fail_appends_of(manager, event, monkeypatch):
        append = manager.journal.append

        def append_unless(name, data):
            if name == event:
                raise OSError(28, "No space left on device")
            return append(name, data)

        monkeypatch.setattr(manager.journal, "append", append_unless)

    @staticmethod
    def assert_replays(manager, store):
        replayed = PlatformManager.open(store=store)
        assert replayed.state_digest() == manager.state_digest()

    def test_failed_admission_append_changes_nothing(
        self, fsl_builds, tmp_path, monkeypatch
    ):
        store = ArtifactStore(tmp_path / "artifacts")
        manager = managed(fsl_builds, store=store)
        manager.admit(fsl_builds[0][0])
        digest = manager.state_digest()
        free = manager.residual.free_tiles()
        self.fail_appends_of(manager, "admit", monkeypatch)
        with pytest.raises(OSError):
            manager.admit(fsl_builds[1][0])
        assert manager.residual.free_tiles() == free
        assert manager.state_digest() == digest
        assert manager.counters.snapshot()["admissions"] == 1
        self.assert_replays(manager, store)

    def test_failed_departure_append_keeps_the_app(
        self, fsl_builds, tmp_path, monkeypatch
    ):
        store = ArtifactStore(tmp_path / "artifacts")
        manager = managed(fsl_builds, store=store)
        first = manager.admit(fsl_builds[0][0])
        manager.admit(fsl_builds[1][0])
        digest = manager.state_digest()
        self.fail_appends_of(manager, "depart", monkeypatch)
        with pytest.raises(OSError):
            manager.depart(first["app_id"], migrate=True)
        assert manager.state_digest() == digest
        assert first["app_id"] in {app.app_id for app in manager.apps()}
        self.assert_replays(manager, store)

    def test_failed_migration_append_leaves_the_survivor_in_place(
        self, fsl_builds, tmp_path, monkeypatch
    ):
        store = ArtifactStore(tmp_path / "artifacts")
        manager = managed(fsl_builds, store=store)
        first = manager.admit(fsl_builds[0][0])
        second = manager.admit(fsl_builds[1][0])
        self.fail_appends_of(manager, "migrate", monkeypatch)
        with pytest.raises(OSError):
            manager.depart(first["app_id"], migrate=True)
        # the depart event stands on its own: the app stays departed
        survivor, = manager.apps()
        assert survivor.app_id == second["app_id"]
        assert survivor.guarantee == decode_fraction(second["guarantee"])
        assert list(survivor.claim.tiles) == second["tiles"]
        assert manager.counters.snapshot()["migrations"] == 0
        self.assert_replays(manager, store)

