"""Tests for the execution-backend abstraction (repro.flow.backend)."""

import os
import time

import pytest

from repro import counters
from repro.flow.backend import (
    BACKENDS,
    BackendError,
    ExecutionBackend,
    ProcessBackend,
    ThreadBackend,
    as_backend,
    backend_task,
    create_backend,
    run_task,
    task_named,
)


@backend_task("test.double")
def _double_task(payload):
    return {"value": payload["value"] * 2}


@backend_task("test.pid")
def _pid_task(payload):
    return {"pid": os.getpid()}


@backend_task("test.count")
def _count_task(payload):
    for _ in range(payload["times"]):
        counters.count("power.platform")
    return {"counted": payload["times"]}


@backend_task("test.fail")
def _fail_task(payload):
    raise ValueError(payload["message"])


@backend_task("test.count_then_fail")
def _count_then_fail_task(payload):
    for _ in range(payload["times"]):
        counters.count("engine.analyses")
    raise ValueError("counted, then failed")


@backend_task("test.sleep")
def _sleep_task(payload):
    time.sleep(payload["seconds"])
    return {"slept": payload["seconds"]}


class TestTaskRegistry:
    def test_registered_task_resolves_by_name(self):
        task = task_named("test.double")
        assert task.name == "test.double"
        assert task.module == __name__
        assert task.fn({"value": 3}) == {"value": 6}

    def test_unknown_task_raises(self):
        with pytest.raises(BackendError, match="unknown backend task"):
            task_named("test.never-registered")

    def test_rebinding_a_name_across_modules_raises(self):
        decorator = backend_task("test.double")

        def imposter(payload):  # pragma: no cover - never called
            return payload

        imposter.__module__ = "somewhere.else"
        with pytest.raises(BackendError, match="already registered"):
            decorator(imposter)

    def test_run_task_reimports_and_dispatches(self):
        # the child-process entry point: resolve by (name, module)
        assert run_task("test.double", __name__, {"value": 5})[0] == {
            "value": 10
        }

    def test_run_task_returns_the_counts_it_made(self):
        assert run_task("test.count", __name__, {"times": 2}) == (
            {"counted": 2},
            {"engine.analyses": 0, "power.platform": 2,
             "power.application": 0, "sim.instants": 0,
             "sim.run_instants": 0, "sim.channel_firings": 0},
        )

    @pytest.mark.parametrize("name", BACKENDS)
    def test_task_counts_reach_this_process(self, name):
        before = counters.PROCESS.snapshot()
        with create_backend(name, 2) as pool:
            assert pool.submit_task(
                "test.count", {"times": 2}
            ).result() == {"counted": 2}
            assert list(pool.run_tasks_ordered(
                "test.count", [{"times": 1}, {"times": 3}]
            )) == [{"counted": 1}, {"counted": 3}]
        after = counters.PROCESS.snapshot()
        assert {
            counter: after[counter] - before[counter] for counter in after
        } == {
            "engine.analyses": 0, "power.platform": 6, "power.application": 0,
            "sim.instants": 0, "sim.run_instants": 0,
            "sim.channel_firings": 0,
        }

    @pytest.mark.parametrize("name", BACKENDS)
    def test_task_errors_reach_the_caller(self, name):
        with create_backend(name, 1) as pool:
            with pytest.raises(ValueError, match="broken"):
                pool.submit_task("test.fail", {"message": "broken"}).result()
            with pytest.raises(ValueError, match="broken"):
                pool.run_tasks_ordered("test.fail", [{"message": "broken"}])


    @pytest.mark.parametrize("name", BACKENDS)
    def test_failed_task_counts_reach_this_process(self, name):
        before = counters.PROCESS.snapshot()
        with create_backend(name, 1) as pool:
            with pytest.raises(ValueError, match="counted, then failed"):
                pool.submit_task(
                    "test.count_then_fail", {"times": 2}
                ).result()
            with pytest.raises(ValueError, match="counted, then failed"):
                pool.run_tasks_ordered(
                    "test.count_then_fail", [{"times": 3}]
                )
        after = counters.PROCESS.snapshot()
        assert {
            counter: after[counter] - before[counter] for counter in after
        } == {
            "engine.analyses": 5, "power.platform": 0, "power.application": 0,
            "sim.instants": 0, "sim.run_instants": 0,
            "sim.channel_firings": 0,
        }

    def test_run_task_attaches_counts_to_the_error(self):
        with pytest.raises(ValueError) as raised:
            run_task("test.count_then_fail", __name__, {"times": 1})
        assert raised.value.task_counts == {
            "engine.analyses": 1, "power.platform": 0, "power.application": 0,
            "sim.instants": 0, "sim.run_instants": 0,
            "sim.channel_firings": 0,
        }


class TestThreadBackend:
    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            ThreadBackend(0)

    def test_serial_map_preserves_order(self):
        with ThreadBackend(1) as pool:
            assert list(pool.map_ordered(lambda x: x * x, [3, 1, 2])) == [
                9, 1, 4,
            ]

    def test_parallel_map_preserves_order(self):
        with ThreadBackend(3) as pool:
            assert list(
                pool.map_ordered(lambda x: x + 1, [5, 6, 7])
            ) == [6, 7, 8]

    def test_submit_runs_callables(self):
        with ThreadBackend(2) as pool:
            assert pool.submit(lambda: 41 + 1).result() == 42

    def test_task_api_matches_direct_calls(self):
        with ThreadBackend(2) as pool:
            future = pool.submit_task("test.double", {"value": 4})
            assert future.result() == {"value": 8}
            assert list(
                pool.run_tasks_ordered(
                    "test.double", [{"value": v} for v in (1, 2, 3)]
                )
            ) == [{"value": 2}, {"value": 4}, {"value": 6}]


class TestProcessBackend:
    def test_tasks_run_in_other_processes(self):
        with ProcessBackend(2) as pool:
            outcome = pool.submit_task("test.pid", {}).result()
        assert outcome["pid"] != os.getpid()

    def test_ordered_task_batches(self):
        with ProcessBackend(2) as pool:
            results = list(
                pool.run_tasks_ordered(
                    "test.double", [{"value": v} for v in (4, 5, 6)]
                )
            )
        assert results == [{"value": 8}, {"value": 10}, {"value": 12}]

    def test_map_ordered_refuses_bare_callables(self):
        with ProcessBackend(1) as pool:
            with pytest.raises(BackendError, match="registered tasks"):
                pool.map_ordered(lambda x: x, [1])

    def test_close_without_wait_terminates_workers(self):
        pool = ProcessBackend(1)
        # park the single worker on a long sleep, then abandon it
        pool.submit_task("test.sleep", {"seconds": 60})
        # give the executor a beat to hand the task to the worker
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            pids = [p.pid for p in pool.worker_processes()]
            if pids:
                break
            time.sleep(0.05)
        started = time.monotonic()
        pool.close(wait=False)
        elapsed = time.monotonic() - started
        assert elapsed < 30.0, "close must not wait out the sleep"
        for pid in pids:
            assert not _pid_alive(pid), f"worker {pid} survived close"


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, not ours
        return True
    return True


class TestFactories:
    def test_backends_constant(self):
        assert BACKENDS == ("thread", "process")

    def test_create_backend_by_name(self):
        thread = create_backend("thread", 2)
        process = create_backend("process", 2)
        try:
            assert isinstance(thread, ThreadBackend)
            assert isinstance(process, ProcessBackend)
            assert thread.jobs == process.jobs == 2
        finally:
            thread.close()
            process.close()

    def test_create_backend_rejects_unknown_names(self):
        with pytest.raises(BackendError, match="unknown backend"):
            create_backend("fiber", 1)

    def test_as_backend_passthrough_and_defaults(self):
        default = as_backend(None, jobs=3)
        named = as_backend("thread", jobs=2)
        try:
            assert isinstance(default, ThreadBackend)
            assert default.jobs == 3
            assert named.jobs == 2
            existing = ThreadBackend(1)
            assert as_backend(existing) is existing
            existing.close()
        finally:
            default.close()
            named.close()

    def test_backends_are_execution_backends(self):
        for name in BACKENDS:
            engine = create_backend(name, 1)
            assert isinstance(engine, ExecutionBackend)
            assert engine.name == name
            engine.close()
