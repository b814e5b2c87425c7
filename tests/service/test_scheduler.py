"""Tests for the flow-service scheduler: dedup, coalescing, serving."""

import json
import threading

import pytest

from repro.artifacts import canonical_json, from_payload, to_payload
from repro.flow.fingerprint import flow_request_key
from repro.flow.spec import FlowSpec, FlowSpecError
from repro.service import (
    RESPONSE_KIND,
    SOURCE_ARTIFACTS,
    SOURCE_COMPUTED,
    FlowResponse,
    FlowScheduler,
    FlowServiceError,
    QueueFullError,
    UnknownJobError,
)

SOLO = {
    "name": "solo",
    "app": {"sequence": "gradient", "frames": 1},
    "architecture": {"tiles": 2},
    "mapping": {"fixed": {"VLD": "tile0"}},
}

DUO = {
    "name": "duo",
    "apps": [
        {"name": "decoder", "sequence": "gradient", "frames": 1,
         "fixed": {"VLD": "tile0"}},
        {"name": "osd", "sequence": "checkerboard", "frames": 1},
    ],
    "architecture": {"tiles": 4},
}


@pytest.fixture
def scheduler(tmp_path):
    with FlowScheduler(tmp_path / "ws", jobs=2, max_queue=8) as s:
        yield s


@pytest.fixture
def count_analyses(monkeypatch):
    """Counts real ``map_application`` calls made by sessions."""
    import repro.flow.session as session_module

    calls = []
    lock = threading.Lock()
    original = session_module.map_application

    def counting(*args, **kwargs):
        with lock:
            calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(session_module, "map_application", counting)
    return calls


def submit_done(scheduler, document, timeout=120.0):
    view = scheduler.submit(document)
    if view["status"] not in ("done", "failed"):
        view = scheduler.wait(view["id"], timeout=timeout)
    assert view["status"] == "done", view
    return view


class TestSubmission:
    def test_submit_computes_and_serves(self, scheduler, count_analyses):
        view = submit_done(scheduler, SOLO)
        assert view["source"] == SOURCE_COMPUTED
        assert view["spec_name"] == "solo"
        assert [s["stage"] for s in view["stages"]] == [
            "application:gradient", "architecture", "mapping:gradient",
        ]
        assert all(s["status"] == "computed" for s in view["stages"])
        assert len(count_analyses) == 1
        payload = json.loads(scheduler.result_text(view["id"]))
        assert payload["kind"] == RESPONSE_KIND
        assert payload["spec_name"] == "solo"
        assert set(payload["mappings"]) == {"gradient"}
        assert payload["constraints_met"] is True
        response = from_payload(payload)
        assert isinstance(response, FlowResponse)
        assert response.guarantees() == payload["guarantees"]

    def test_second_submission_served_from_artifacts(
        self, scheduler, count_analyses
    ):
        first = submit_done(scheduler, SOLO)
        second = scheduler.submit(SOLO)
        assert second["status"] == "done"
        assert second["source"] == SOURCE_ARTIFACTS
        assert second["id"] != first["id"]
        assert scheduler.result_text(second["id"]) == \
            scheduler.result_text(first["id"])
        # the whole second submission did zero mapping analyses
        assert len(count_analyses) == 1
        counters = scheduler.counters.snapshot()
        assert counters["computed"] == 1
        assert counters["artifact_hits"] == 1

    def test_multi_app_request_serves_use_case_union(self, scheduler):
        view = submit_done(scheduler, DUO)
        payload = json.loads(scheduler.result_text(view["id"]))
        assert set(payload["mappings"]) == {"decoder", "osd"}
        assert payload["use_cases"]["kind"] == "use-case-mapping"
        assert "use-cases" in [s["stage"] for s in view["stages"]]

    def test_spec_objects_and_paths_accepted(self, scheduler, tmp_path):
        spec_file = tmp_path / "solo.json"
        spec_file.write_text(json.dumps(SOLO), encoding="utf-8")
        by_path = submit_done(scheduler, spec_file)
        by_object = scheduler.submit(FlowSpec.from_dict(dict(SOLO)))
        assert by_object["status"] == "done"
        assert by_object["request_key"] == by_path["request_key"]

    def test_malformed_document_rejected_before_enqueue(self, scheduler):
        with pytest.raises(FlowSpecError, match="unknown top-level"):
            scheduler.submit({"nonsense": True})
        assert scheduler.health()["queue_depth"] == 0

    def test_failing_spec_reports_failed_job(self, scheduler):
        bad = dict(SOLO, name="bad",
                   mapping={"fixed": {"VLD": "tile7"}})
        view = scheduler.submit(bad)
        view = scheduler.wait(view["id"], timeout=120)
        assert view["status"] == "failed"
        assert view["error"]
        assert scheduler.result_text(view["id"]) is None
        assert scheduler.counters.snapshot()["failed"] == 1
        # the stage whose compute raised is closed out, not left
        # "running" inside a failed job
        assert view["stages"]
        assert all(s["status"] != "running" for s in view["stages"])
        assert view["stages"][-1]["status"] == "failed"

    def test_unknown_job_rejected(self, scheduler):
        with pytest.raises(UnknownJobError, match="job-nope"):
            scheduler.get("job-nope")

    def test_closed_scheduler_rejects_submissions(self, tmp_path):
        scheduler = FlowScheduler(tmp_path / "ws")
        scheduler.close()
        with pytest.raises(FlowServiceError, match="closed"):
            scheduler.submit(SOLO)
        scheduler.close()  # idempotent


class TestCoalescing:
    def test_concurrent_identical_submissions_compute_once(
        self, scheduler, count_analyses
    ):
        """N concurrent clients, one computation, byte-identical fan-out."""
        n = 6
        barrier = threading.Barrier(n)
        views, errors = [], []

        def client():
            try:
                barrier.wait(timeout=10)
                view = scheduler.submit(SOLO)
                if view["status"] not in ("done", "failed"):
                    view = scheduler.wait(view["id"], timeout=120)
                views.append(view)
            except Exception as error:  # pragma: no cover
                errors.append(error)

        threads = [threading.Thread(target=client) for _ in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=180)
        assert not errors
        assert len(views) == n
        assert all(v["status"] == "done" for v in views)
        # exactly one underlying computation...
        assert len(count_analyses) == 1
        assert scheduler.counters.snapshot()["computed"] == 1
        # ...and every client got the same bytes
        texts = {scheduler.result_text(v["id"]) for v in views}
        assert len(texts) == 1
        # in-flight duplicates shared the computing job
        shared = {v["id"] for v in views if v["source"] != SOURCE_ARTIFACTS}
        assert len(shared) == 1
        assert scheduler.counters.snapshot()["coalesced"] >= 1

    def test_queue_bound_rejects_excess_submissions(
        self, tmp_path, monkeypatch
    ):
        release = threading.Event()

        with FlowScheduler(tmp_path / "ws", jobs=1, max_queue=1) as s:
            original = FlowScheduler._compute

            def blocked(self, job):
                assert release.wait(timeout=60)
                return original(self, job)

            monkeypatch.setattr(FlowScheduler, "_compute", blocked)
            first = s.submit(SOLO)
            assert first["status"] in ("queued", "running")
            other = dict(SOLO, name="other",
                         architecture={"tiles": 3})
            with pytest.raises(QueueFullError, match="queue full"):
                s.submit(other)
            # the same spec still coalesces instead of being rejected
            again = s.submit(SOLO)
            assert again["coalesced"] is True
            assert again["id"] == first["id"]
            release.set()
            done = s.wait(first["id"], timeout=120)
            assert done["status"] == "done"

    def test_queue_bound_rejects_platform_admissions(
        self, tmp_path, monkeypatch
    ):
        release = threading.Event()

        with FlowScheduler(tmp_path / "ws", jobs=1, max_queue=1) as s:
            original = FlowScheduler._compute

            def blocked(self, job):
                assert release.wait(timeout=60)
                return original(self, job)

            monkeypatch.setattr(FlowScheduler, "_compute", blocked)
            first = s.submit(SOLO)
            assert first["status"] in ("queued", "running")
            with pytest.raises(QueueFullError, match="queue full"):
                s.platform_admit(SOLO)
            release.set()
            assert s.wait(first["id"], timeout=120)["status"] == "done"

    def test_bookkeeping_holds_under_contention(self, tmp_path,
                                                monkeypatch):
        """More submitters than cores and a short switch interval: each
        key computes once, every submission is accounted for, and every
        queue slot comes back."""
        import sys
        import time

        def stub(self, job):
            time.sleep(0.005)
            payload = {"schema_version": 1, "kind": RESPONSE_KIND}
            self.store.put(RESPONSE_KIND, job.request_key, payload)
            return canonical_json(payload) + "\n"

        monkeypatch.setattr(FlowScheduler, "_compute", stub)
        documents = [dict(SOLO, name=f"s{n}") for n in range(64)]
        threads_n, rounds = 8, len(documents)
        errors = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with FlowScheduler(tmp_path / "ws", jobs=4,
                               max_queue=64) as s:
                def client(offset):
                    try:
                        for i in range(rounds):
                            view = s.submit(
                                documents[(offset + i) % len(documents)]
                            )
                            s.wait(view["id"], timeout=60)
                    except Exception as error:  # pragma: no cover
                        errors.append(error)

                threads = [
                    threading.Thread(target=client, args=(n,))
                    for n in range(threads_n)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
                counts = s.counters.snapshot()
                health = s.health()
        finally:
            sys.setswitchinterval(interval)
        assert not errors
        assert counts["computed"] == len(documents)
        assert counts["failed"] == 0
        assert counts["submitted"] == threads_n * rounds
        assert counts["submitted"] == (
            counts["coalesced"] + counts["artifact_hits"]
            + counts["computed"]
        )
        assert health["queue_depth"] == 0


class TestPlatformCalls:
    def test_platform_calls_run_on_the_calling_thread(
        self, tmp_path, monkeypatch
    ):
        """No loop or auxiliary pool: admit, status and depart run on
        the thread that called them, and each gives its queue slot
        back."""
        from repro.runtime.manager import PlatformManager

        seen = []

        def recorder(name):
            def call(self, *args):
                seen.append((name, threading.get_ident()))
                return {"call": name}
            return call

        for name in ("admit", "status", "depart"):
            monkeypatch.setattr(PlatformManager, name, recorder(name))
        before = set(threading.enumerate())
        with FlowScheduler(tmp_path / "ws", jobs=1, max_queue=1) as s:
            assert s.platform_status() == {"configured": False}
            assert s.platform_admit(SOLO) == {"call": "admit"}
            assert s.platform_status() == {"call": "status"}
            assert s.platform_depart("solo") == {"call": "depart"}
            assert s.health()["queue_depth"] == 0
            assert set(threading.enumerate()) == before
        me = threading.get_ident()
        assert seen == [
            ("admit", me), ("status", me), ("depart", me)
        ]


class TestShutdown:
    def test_close_is_bounded_by_a_wedged_job(self, tmp_path,
                                              monkeypatch):
        """close(timeout) must hand control back even when a session
        wedges: the drain times out once and the pool is released
        without a second unbounded join."""
        import time

        release = threading.Event()

        def wedged(self, job):
            release.wait(timeout=60)
            return '{"stub": true}\n'

        monkeypatch.setattr(FlowScheduler, "_compute", wedged)
        scheduler = FlowScheduler(tmp_path / "ws", jobs=1)
        scheduler.submit(SOLO)
        start = time.monotonic()
        scheduler.close(timeout=0.5)
        assert time.monotonic() - start < 10.0
        release.set()  # let the worker thread finish

    def test_thread_backend_close_without_wait(self):
        """ThreadBackend.close(wait=False) returns while a worker runs."""
        import time

        from repro.flow.backend import ThreadBackend

        release = threading.Event()
        pool = ThreadBackend(1)
        future = pool.submit(release.wait, 60)
        start = time.monotonic()
        pool.close(wait=False)
        assert time.monotonic() - start < 5.0
        release.set()
        assert future.result(timeout=10) is True
        pool.close()  # idempotent


class TestWarmWorkspace:
    def test_restart_serves_from_artifacts_without_computing(
        self, tmp_path, count_analyses
    ):
        workspace = tmp_path / "ws"
        with FlowScheduler(workspace, jobs=1) as first:
            before = submit_done(first, SOLO)
            text = first.result_text(before["id"])
        # "restart": a fresh scheduler over the same workspace
        with FlowScheduler(workspace, jobs=1) as second:
            view = second.submit(SOLO)
            assert view["status"] == "done"
            assert view["source"] == SOURCE_ARTIFACTS
            assert second.result_text(view["id"]) == text
        assert len(count_analyses) == 1

    def test_restart_without_response_resumes_all_stages(self, tmp_path):
        """Even with the response artifact gone, a warm workspace
        resumes every session stage (the `repro batch` >=90% gate)."""
        workspace = tmp_path / "ws"
        with FlowScheduler(workspace, jobs=1) as first:
            before = submit_done(first, SOLO)
            text = first.result_text(before["id"])
            key = before["request_key"]
        (workspace / "artifacts" / RESPONSE_KIND / f"{key}.json").unlink()
        with FlowScheduler(workspace, jobs=1) as second:
            view = submit_done(second, SOLO)
            assert view["source"] == SOURCE_COMPUTED
            stages = view["stages"]
            resumed = [s for s in stages if s["status"] == "resumed"]
            assert len(resumed) / len(stages) >= 0.9  # actually 1.0
            assert second.result_text(view["id"]) == text


class TestJobHistory:
    def test_finished_jobs_are_evicted_beyond_the_limit(
        self, tmp_path, count_analyses
    ):
        """Tracked jobs are transient serving state: a long-running
        server must not grow memory with traffic.  Artifacts remain the
        durable record, so resubmitting an evicted request still hits."""
        with FlowScheduler(
            tmp_path / "ws", jobs=1, history_limit=2
        ) as scheduler:
            first = submit_done(scheduler, SOLO)
            views = [scheduler.submit(SOLO) for _ in range(3)]
            assert all(v["source"] == SOURCE_ARTIFACTS for v in views)
            assert len(count_analyses) == 1
            assert scheduler.health()["jobs_tracked"] == 2
            with pytest.raises(UnknownJobError):
                scheduler.get(first["id"])
            # the newest jobs survive
            assert scheduler.get(views[-1]["id"])["status"] == "done"


class TestByteIdentity:
    def test_served_payload_matches_run_workspace_json(
        self, scheduler, tmp_path, capsys
    ):
        """The acceptance gate: the served mappings are byte-identical
        to what ``repro run --workspace --json`` emits and persists for
        the same spec."""
        from repro.cli import main

        view = submit_done(scheduler, DUO)
        served = json.loads(scheduler.result_text(view["id"]))

        spec_file = tmp_path / "duo.json"
        spec_file.write_text(json.dumps(DUO), encoding="utf-8")
        cli_ws = tmp_path / "cli-ws"
        assert main(["run", "--spec", str(spec_file),
                     "--workspace", str(cli_ws), "--json"]) == 0
        cli_payload = json.loads(capsys.readouterr().out)

        # identical canonical bytes for every deterministic subtree
        for name in ("decoder", "osd"):
            assert canonical_json(served["mappings"][name]) == \
                canonical_json(cli_payload["mappings"][name])
        assert canonical_json(served["use_cases"]) == \
            canonical_json(cli_payload["use_cases"])

        # and the artifact stores themselves are byte-identical where
        # they overlap (the service adds only flow-response documents)
        service_root = scheduler.workspace / "artifacts"
        for path in sorted(cli_ws.joinpath("artifacts").rglob("*.json")):
            twin = service_root / path.relative_to(cli_ws / "artifacts")
            assert twin.read_bytes() == path.read_bytes()


class TestRequestKey:
    def test_key_is_deterministic_and_knob_sensitive(self):
        spec = FlowSpec.from_dict(dict(SOLO))
        again = FlowSpec.from_dict(dict(SOLO))
        assert flow_request_key(spec) == flow_request_key(again)
        assert len(flow_request_key(spec)) == 64
        changed = FlowSpec.from_dict(
            dict(SOLO, architecture={"tiles": 3})
        )
        assert flow_request_key(changed) != flow_request_key(spec)
        strategy = FlowSpec.from_dict(
            dict(SOLO, mapping={"binding": "spiral"})
        )
        assert flow_request_key(strategy) != flow_request_key(spec)

    def test_key_follows_effective_pins_not_document_layout(self):
        """The key hashes what the session *runs*: an app whose empty
        pin table overrides the spec-level pins must not share a key
        with an app that inherits them (they map differently), while
        spelling the same pins at spec level or app level must."""
        base = {
            "name": "pins",
            "apps": [{"name": "a", "sequence": "gradient", "frames": 1}],
            "architecture": {"tiles": 2},
            "mapping": {"fixed": {"VLD": "tile0"}},
        }
        inherited = FlowSpec.from_dict(json.loads(json.dumps(base)))
        overridden = json.loads(json.dumps(base))
        overridden["apps"][0]["fixed"] = {}  # explicit: no pins
        overridden = FlowSpec.from_dict(overridden)
        assert inherited.fixed_for(inherited.apps[0]) == {"VLD": "tile0"}
        assert overridden.fixed_for(overridden.apps[0]) is None
        assert flow_request_key(inherited) != flow_request_key(overridden)

        per_app = json.loads(json.dumps(base))
        per_app["apps"][0]["fixed"] = {"VLD": "tile0"}
        del per_app["mapping"]["fixed"]
        per_app = FlowSpec.from_dict(per_app)
        assert flow_request_key(per_app) == flow_request_key(inherited)

    def test_response_payload_roundtrips(self, scheduler):
        view = submit_done(scheduler, SOLO)
        text = scheduler.result_text(view["id"])
        response = from_payload(json.loads(text))
        assert canonical_json(to_payload(response)) + "\n" == text
