"""Multi-replica property: N schedulers + one workspace = one flow.

Replicas sharing a workspace coordinate through nothing but the
content-addressed artifact store (atomic, idempotent writes).  Whatever
the interleaving, the observable outcome must be *one computation's
worth* of byte-identical artifacts, and every replica must serve the
exact same canonical response text.
"""

import threading
import time
from pathlib import Path
from typing import Dict

from repro.service import FlowScheduler

SOLO = {
    "name": "solo",
    "app": {"sequence": "gradient", "frames": 1},
    "architecture": {"tiles": 2},
    "mapping": {"fixed": {"VLD": "tile0"}},
}


def artifact_tree(workspace: Path) -> Dict[str, bytes]:
    root = workspace / "artifacts"
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*.json"))
    }


def wait_done(scheduler, job_id, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        view = scheduler.get(job_id)
        if view["status"] in ("done", "failed"):
            return view
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never finished")


class TestSharedWorkspaceReplicas:
    def test_concurrent_replicas_produce_one_computation(self, tmp_path):
        """Two replicas (one thread-, one process-backed) race the same
        spec; the workspace ends up exactly as a solo run leaves it."""
        shared = tmp_path / "shared"
        replica_a = FlowScheduler(
            shared, jobs=1, backend="thread", replica="r-a"
        )
        replica_b = FlowScheduler(
            shared, jobs=1, backend="process", replica="r-b"
        )
        texts = {}
        try:
            barrier = threading.Barrier(2)

            def race(name, scheduler):
                barrier.wait()
                view = wait_done(
                    scheduler, scheduler.submit(SOLO)["id"]
                )
                assert view["status"] == "done"
                texts[name] = scheduler.result_text(view["id"])

            threads = [
                threading.Thread(target=race, args=("a", replica_a)),
                threading.Thread(target=race, args=("b", replica_b)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
                assert not thread.is_alive()
        finally:
            replica_a.close()
            replica_b.close()

        assert set(texts) == {"a", "b"}
        assert texts["a"] == texts["b"], (
            "replicas served different response bytes"
        )

        # the shared tree is exactly what one solo computation writes
        with FlowScheduler(tmp_path / "solo", jobs=1) as reference:
            wait_done(reference, reference.submit(SOLO)["id"])
        assert artifact_tree(shared) == artifact_tree(tmp_path / "solo")

    def test_second_replica_serves_from_first_replicas_artifacts(
        self, tmp_path
    ):
        shared = tmp_path / "shared"
        with FlowScheduler(shared, jobs=1, replica="warm") as first:
            wait_done(first, first.submit(SOLO)["id"])
        # a fresh replica over the same workspace answers instantly,
        # without computing anything
        with FlowScheduler(shared, jobs=1, replica="cold") as second:
            view = second.submit(SOLO)
            assert view["status"] == "done"
            assert view["source"] == "artifacts"
            assert second.counters.snapshot()["computed"] == 0
            assert second.counters.snapshot()["artifact_hits"] == 1
