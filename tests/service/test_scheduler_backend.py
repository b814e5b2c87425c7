"""Process-backend scheduler tests: compute, health, prompt shutdown."""

import os
import threading
import time

import pytest

from repro import counters
from repro.service import (
    RESPONSE_KIND,
    SOURCE_ARTIFACTS,
    SOURCE_COMPUTED,
    FlowScheduler,
)

SOLO = {
    "name": "solo",
    "app": {"sequence": "gradient", "frames": 1},
    "architecture": {"tiles": 2},
    "mapping": {"fixed": {"VLD": "tile0"}},
}


def process_deltas(work):
    """What ``work()`` added to the process-wide counts."""
    before = counters.PROCESS.snapshot()
    work()
    after = counters.PROCESS.snapshot()
    return {name: after[name] - before[name] for name in after}


def wait_done(scheduler, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        view = scheduler.get(job_id)
        if view["status"] in ("done", "failed"):
            return view
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never finished")


@pytest.fixture
def process_scheduler(tmp_path):
    with FlowScheduler(
        tmp_path / "ws", jobs=2, max_queue=8,
        backend="process", replica="r-test",
    ) as s:
        yield s


class TestProcessCompute:
    def test_computes_on_worker_processes(self, process_scheduler):
        view = wait_done(
            process_scheduler,
            process_scheduler.submit(SOLO)["id"],
        )
        assert view["status"] == "done"
        assert view["source"] == SOURCE_COMPUTED
        assert view["replica"] == "r-test"
        # stage records are backfilled from the worker's result
        assert view["stages"], "no stage records came back"
        assert all(s["status"] == "computed" for s in view["stages"])
        # and the work demonstrably left this process
        assert any(
            p.pid != os.getpid()
            for p in process_scheduler.pool.worker_processes()
        )

    def test_artifact_fast_path_after_process_compute(
        self, process_scheduler
    ):
        first = wait_done(
            process_scheduler, process_scheduler.submit(SOLO)["id"]
        )
        again = process_scheduler.submit(SOLO)
        assert again["status"] == "done"
        assert again["source"] == SOURCE_ARTIFACTS
        assert process_scheduler.counters.snapshot()["artifact_hits"] == 1
        assert process_scheduler.result_text(
            again["id"]
        ) == process_scheduler.result_text(first["id"])

    def test_response_text_matches_thread_backend(
        self, tmp_path, process_scheduler
    ):
        by_process = process_scheduler.result_text(
            wait_done(
                process_scheduler, process_scheduler.submit(SOLO)["id"]
            )["id"]
        )
        with FlowScheduler(tmp_path / "thread-ws", jobs=1) as thread:
            by_thread = thread.result_text(
                wait_done(thread, thread.submit(SOLO)["id"])["id"]
            )
        assert by_process == by_thread


class TestHealth:
    def test_health_reports_backend_and_replica(self, process_scheduler):
        health = process_scheduler.health()
        assert health["backend"] == "process"
        assert health["replica"] == "r-test"
        assert health["worker_slots"] == 2
        assert set(health["counters"]) >= {
            "submitted", "coalesced", "artifact_hits", "computed",
            "failed",
        }

    def test_thread_scheduler_reports_its_backend(self, tmp_path):
        with FlowScheduler(tmp_path / "ws", jobs=1) as scheduler:
            health = scheduler.health()
            assert health["backend"] == "thread"
            assert health["replica"].startswith("replica-")

    def test_worker_analyses_reach_the_health_counters(self, tmp_path):
        """Both backends report identical engine/sim/power deltas for one
        computed spec: process workers ship theirs back."""
        deltas = {}
        for backend in ("thread", "process"):
            with FlowScheduler(
                tmp_path / backend, jobs=1, backend=backend
            ) as scheduler:
                before = scheduler.health()
                wait_done(scheduler, scheduler.submit(SOLO)["id"])
                after = scheduler.health()
            assert after["counters"]["computed"] == 1
            deltas[backend] = {
                section: {
                    key: after[section][key] - before[section][key]
                    for key in after[section]
                }
                for section in ("engine", "sim", "power")
            }
        assert deltas["thread"]["engine"]["analyses"] > 0
        assert deltas["thread"]["sim"]["instants"] > 0
        assert deltas["process"] == deltas["thread"]

    # One worker: with more, each process worker's private evaluation
    # cache may re-run an analysis the thread run takes from its shared
    # cache.
    def test_worker_sweep_counts_reach_the_parent(self):
        from repro.flow import explore_design_space
        from repro.flow.spec import build_case_study_app
        from repro.power import PowerModel

        app = build_case_study_app("gradient", frames=1)
        deltas = {
            backend: process_deltas(lambda: explore_design_space(
                app, tile_counts=(1, 2), interconnects=("fsl",),
                fixed={"VLD": "tile0"}, power_model=PowerModel(),
                backend=backend, jobs=1,
            ))
            for backend in ("thread", "process")
        }
        assert deltas["thread"]["engine.analyses"] >= 2
        assert deltas["thread"]["power.platform"] == 2
        assert deltas["process"] == deltas["thread"]

    def test_worker_batch_counts_reach_the_parent(self, tmp_path):
        from repro.flow import FlowSpec, run_batch

        spec = FlowSpec.from_dict(SOLO)
        deltas = {
            backend: process_deltas(lambda: run_batch(
                [spec], tmp_path / backend, jobs=1, backend=backend
            ))
            for backend in ("thread", "process")
        }
        assert sum(deltas["thread"].values()) > 0
        assert deltas["process"] == deltas["thread"]


class TestPromptShutdown:
    def test_close_terminates_workers_behind_a_wedged_job(
        self, tmp_path, monkeypatch
    ):
        # Fork workers inherit this patch, so the job wedges inside the
        # child -- exactly the state a Ctrl-C during a long compute
        # leaves behind.
        import repro.service.scheduler as scheduler_module

        def wedged(spec, workspace, store=None):
            time.sleep(120.0)
            raise AssertionError("unreachable")

        monkeypatch.setattr(scheduler_module, "execute_spec", wedged)
        scheduler = FlowScheduler(
            tmp_path / "ws", jobs=1, backend="process"
        )
        scheduler.submit(SOLO)
        deadline = time.monotonic() + 10.0
        pids = []
        while time.monotonic() < deadline and not pids:
            pids = [
                p.pid for p in scheduler.pool.worker_processes()
            ]
            time.sleep(0.05)
        assert pids, "worker process never started"

        started = time.monotonic()
        scheduler.close(timeout=1.0)
        elapsed = time.monotonic() - started
        assert elapsed < 30.0, (
            f"close took {elapsed:.1f}s; must not wait out the job"
        )
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if not any(_alive(pid) for pid in pids):
                break
            time.sleep(0.1)
        for pid in pids:
            assert not _alive(pid), f"orphaned worker {pid}"

    def test_serve_shutdown_with_inflight_job(
        self, tmp_path, monkeypatch
    ):
        # the full `repro serve` teardown order under an in-flight job:
        # server.shutdown() -> server_close() -> scheduler.close()
        import repro.service.scheduler as scheduler_module

        from repro.service import FlowServiceClient, serve

        def slow(spec, workspace, store=None, _real=scheduler_module
                 .execute_spec):
            time.sleep(120.0)
            return _real(spec, workspace, store=store)

        monkeypatch.setattr(scheduler_module, "execute_spec", slow)
        server = serve(
            tmp_path / "ws", port=0, jobs=1, backend="process"
        )
        thread = threading.Thread(
            target=server.serve_forever, daemon=True
        )
        thread.start()
        client = FlowServiceClient(server.url)
        view = client.submit(SOLO)
        assert view["status"] in ("queued", "running")
        pids = []
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and not pids:
            pids = [
                p.pid
                for p in server.scheduler.pool.worker_processes()
            ]
            time.sleep(0.05)

        started = time.monotonic()
        server.shutdown()
        server.server_close()
        server.scheduler.close(timeout=1.0)
        assert time.monotonic() - started < 30.0
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        for pid in pids:
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and _alive(pid):
                time.sleep(0.1)
            assert not _alive(pid), f"orphaned worker {pid}"

    def test_serve_closes_its_scheduler_when_the_port_is_taken(
        self, tmp_path
    ):
        import multiprocessing
        import socket

        from repro.service import serve

        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            with pytest.raises(OSError):
                serve(tmp_path / "ws", port=port, backend="process")
        assert multiprocessing.active_children() == []
        assert not any(
            t.name == "flow-scheduler" for t in threading.enumerate()
        )


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    return True
