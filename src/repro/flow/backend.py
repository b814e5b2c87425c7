"""Execution backends: the worker plumbing behind every fan-out.

Everything in the flow that runs work concurrently -- the exploration
engine (:mod:`repro.flow.dse`), the batch runner
(:func:`repro.flow.session.run_batch`) and the flow service scheduler
(:mod:`repro.service.scheduler`) -- goes through one
:class:`ExecutionBackend`:

* :class:`ThreadBackend` (``"thread"``): deterministic ordered fan-out
  over a ``concurrent.futures`` thread pool, with ``jobs == 1`` strictly
  serial.  Workers share the caller's memory, so arbitrary callables
  (closures, bound methods) are fine -- but pure-Python work contends
  on the GIL.
* :class:`ProcessBackend` (``"process"``) fans *registered tasks* out
  over a stdlib :class:`~concurrent.futures.ProcessPoolExecutor`.  Work
  crosses the process boundary as JSON payloads (a
  :meth:`~repro.flow.spec.FlowSpec.to_document` document, a canonical
  artifact payload), never as pickled object graphs, so only
  :func:`backend_task` functions -- module-level, payload-in /
  payload-out -- are eligible.  Results come back as canonical
  payloads and are reassembled through the artifact codecs; the
  content-addressed :class:`~repro.artifacts.store.ArtifactStore`
  (atomic, idempotent writes) is the only coordination N workers --
  or N independent ``repro serve`` replicas sharing a workspace --
  ever need.

:func:`run_task` runs every registered task inside a
:func:`repro.counters.collect` scope and returns its counts with the
result (or on the exception it raised); the process backend merges
them into the parent's counts and hands callers the task's own result
or exception, so counts match across backends.

Only the thread backend runs *local* callables (closures, bound
methods) -- :meth:`ThreadBackend.submit` and
:meth:`~ExecutionBackend.map_ordered`.  Two callers fork on the backend
to use them, each because its work carries state a payload cannot: the
exploration engine's threads share the caller's evaluation cache, and
the service scheduler's flow computations stream per-stage progress.
Everything else ships the same registered task on both backends.

The byte-identity guarantee of the flow survives the backend choice:
a task computes canonical artifacts keyed by content, so a thread run
and a process run of the same spec write byte-identical ``artifacts/``
trees (regression-tested in ``tests/flow/test_session_backends.py``).
"""

from __future__ import annotations

import contextlib
import importlib
import multiprocessing
import os
import threading
import time
from concurrent.futures import (
    Future,
    InvalidStateError,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, Optional, Tuple, Union

from repro import counters
from repro.exceptions import ReproError

#: The selectable backend names (the ``--backend`` choices).
BACKENDS: Tuple[str, ...] = ("thread", "process")


class BackendError(ReproError):
    """Raised for unknown backends, unknown tasks and backend misuse."""


# ----------------------------------------------------------------------
# the task registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Task:
    """One process-shippable unit of work.

    ``fn`` takes a JSON-able payload dict and returns a JSON-able
    result; ``module`` is the defining module, which a worker process
    imports before dispatch (registration is an import side effect, so
    this works under both ``fork`` and ``spawn`` start methods).
    """

    name: str
    module: str
    fn: Callable[[Dict[str, Any]], Any]


_TASKS: Dict[str, Task] = {}


def backend_task(
    name: str,
) -> Callable[[Callable[[Dict[str, Any]], Any]],
              Callable[[Dict[str, Any]], Any]]:
    """Register a module-level function as a process-shippable task.

    Only the task *name* and its payload cross the process boundary;
    the worker re-resolves the function through this registry after
    importing the defining module.  Payloads and results must be
    JSON-able (ship documents and canonical artifact payloads, not
    live objects).
    """

    def decorate(
        fn: Callable[[Dict[str, Any]], Any]
    ) -> Callable[[Dict[str, Any]], Any]:
        existing = _TASKS.get(name)
        if existing is not None and existing.module != fn.__module__:
            raise BackendError(
                f"backend task {name!r} already registered by "
                f"{existing.module}; refusing to rebind from "
                f"{fn.__module__}"
            )
        _TASKS[name] = Task(name=name, module=fn.__module__, fn=fn)
        return fn

    return decorate


def task_named(name: str) -> Task:
    """Look a registered task up; raises :class:`BackendError`."""
    task = _TASKS.get(name)
    if task is None:
        known = ", ".join(sorted(_TASKS)) or "none registered"
        raise BackendError(f"unknown backend task {name!r} ({known})")
    return task


@backend_task("backend.warm")
def _warm_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """No-op warm-up task; the brief sleep keeps this worker busy so
    the executor spawns a sibling for the next pending warm-up."""
    time.sleep(float(payload.get("seconds", 0.0)))
    return {"pid": os.getpid()}


def run_task(
    name: str, module: str, payload: Dict[str, Any]
) -> Tuple[Any, Dict[str, int]]:
    """Worker-process entry point: import, resolve, dispatch.

    Importing ``module`` (re-)runs its :func:`backend_task`
    registrations, so a freshly spawned worker that never saw the
    parent's imports still resolves the task.  Returns the task's
    result and the :mod:`repro.counters` counts it made.
    """
    task = _TASKS.get(name)
    if task is None:
        importlib.import_module(module)
        task = _TASKS.get(name)
    if task is None:
        raise BackendError(
            f"task {name!r} not registered by importing {module!r}"
        )
    with counters.collect() as scope:
        try:
            result = task.fn(payload)
        except Exception as error:
            # Pickled with the exception (it lives in its __dict__).
            error.task_counts = scope.snapshot()
            raise
    return result, scope.snapshot()


def _merging(future: Future) -> Future:
    """A future of the task's own result from a :func:`run_task` future.

    The worker's counts merge into this process's as the task finishes,
    whether or not anyone reads the result, and also when the task
    raised.  Cancelling either future cancels the other.
    """
    unwrapped: Future = Future()

    def settle(done: Future) -> None:
        if done.cancelled():
            unwrapped.cancel()
            return
        with contextlib.suppress(InvalidStateError):  # cancelled meanwhile
            error = done.exception()
            if error is None:
                result, counts = done.result()
            else:
                counts = getattr(error, "task_counts", {})
            for name, amount in counts.items():
                counters.count(name, amount)
            if error is None:
                unwrapped.set_result(result)
            else:
                unwrapped.set_exception(error)

    future.add_done_callback(settle)
    unwrapped.add_done_callback(lambda f: f.cancelled() and future.cancel())
    return unwrapped


# ----------------------------------------------------------------------
# the backends
# ----------------------------------------------------------------------
class ExecutionBackend:
    """The protocol both backends implement.

    Two submission surfaces:

    * **local callables** -- :meth:`map_ordered` (and
      :meth:`ThreadBackend.submit`) run arbitrary callables on the
      thread backend; the process backend refuses them.
    * **registered tasks** -- :meth:`submit_task` /
      :meth:`run_tasks_ordered` run :func:`backend_task` functions by
      name with JSON payloads; the only surface that crosses a
      process boundary.

    ``submit``/``submit_task`` use one *persistent* executor (alive
    until :meth:`close`) -- the long-lived mode the flow service runs
    on; the ordered-map calls tear their executor down per batch.
    """

    name: str = "?"

    def __init__(self, jobs: int = 1) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs

    # -- local callables ----------------------------------------------
    def map_ordered(
        self,
        worker: Callable[[Any], Any],
        items: Iterable[Any],
        fold: Optional[Callable[[Iterable[Any]], Any]] = None,
    ) -> Any:
        raise NotImplementedError

    # -- registered tasks ---------------------------------------------
    def submit_task(self, name: str, payload: Dict[str, Any]) -> Future:
        raise NotImplementedError

    def run_tasks_ordered(
        self,
        name: str,
        payloads: Iterable[Dict[str, Any]],
        fold: Optional[Callable[[Iterable[Any]], Any]] = None,
    ) -> Any:
        raise NotImplementedError

    def warm(self) -> None:
        """Start the workers now instead of at first use; no-op where
        workers are cheap (threads)."""

    def close(self, wait: bool = True) -> None:
        raise NotImplementedError

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


class ThreadBackend(ExecutionBackend):
    """Deterministic ordered fan-out over a thread pool.

    ``jobs == 1`` stays strictly serial (no pool, no threads), so a
    single-job run is bit-for-bit what a loop would do.  With more jobs,
    work items are submitted eagerly and results are *consumed* in
    submission order, which is what keeps parallel output identical to
    serial output.  This is the worker plumbing behind both
    :class:`~repro.flow.dse.ParallelExplorer` and the batch runner
    (:func:`repro.flow.session.run_batch`).
    """

    name = "thread"

    def __init__(self, jobs: int = 1) -> None:
        super().__init__(jobs)
        self._executor: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()

    def submit(self, worker: Callable[..., Any], *args: Any) -> Future:
        """Submit one call to the pool's *persistent* executor.

        Unlike :meth:`map_ordered`, which tears its thread pool down at
        the end of every batch, ``submit`` keeps one executor (of
        ``jobs`` workers) alive until :meth:`close` -- the long-lived
        mode the flow service scheduler (:mod:`repro.service`) runs on,
        where requests arrive over time rather than as one sequence.
        Returns the ``concurrent.futures.Future`` of the call;
        ``jobs == 1`` still executes asynchronously on the (single)
        worker thread, serializing submissions.
        """
        with self._lock:
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.jobs, thread_name_prefix="flow-pool"
                )
            return self._executor.submit(worker, *args)

    def close(self, wait: bool = True) -> None:
        """Shut the persistent executor down.

        Only needed after :meth:`submit`; :meth:`map_ordered` cleans up
        after itself.  Idempotent.  ``wait=False`` returns without
        joining running workers -- for shutdown paths that already
        waited out a drain timeout and must hand control back rather
        than block behind a wedged job.  (The interpreter still joins
        executor threads at exit; ``wait=False`` bounds *this* call,
        not a hung worker's lifetime.)
        """
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=not wait)

    def map_ordered(
        self,
        worker: Callable[[Any], Any],
        items: Iterable[Any],
        fold: Optional[Callable[[Iterable[Any]], Any]] = None,
    ) -> Any:
        """Apply ``worker`` to every item; results in submission order.

        ``fold`` consumes the lazily produced result iterator and its
        return value is returned; it may stop early (remaining futures
        are cancelled -- workers should also honour a stop flag, since a
        running future cannot be cancelled).  The default fold collects
        a list.
        """
        if fold is None:
            fold = list
        if self.jobs == 1:
            return fold(worker(item) for item in items)
        with ThreadPoolExecutor(max_workers=self.jobs) as pool:
            futures = [pool.submit(worker, item) for item in items]
            try:
                return fold(future.result() for future in futures)
            finally:
                for future in futures:
                    future.cancel()  # no-op for completed futures

    # -- registered tasks run as plain calls on the thread side --------
    def submit_task(self, name: str, payload: Dict[str, Any]) -> Future:
        return self.submit(task_named(name).fn, payload)

    def run_tasks_ordered(
        self,
        name: str,
        payloads: Iterable[Dict[str, Any]],
        fold: Optional[Callable[[Iterable[Any]], Any]] = None,
    ) -> Any:
        return self.map_ordered(task_named(name).fn, payloads, fold)


def default_start_method() -> str:
    """``fork`` where the platform offers it (fast: workers inherit the
    parent's imports, ~0.3 s of them), ``spawn`` otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class ProcessBackend(ExecutionBackend):
    """Registered-task fan-out over a ``ProcessPoolExecutor``.

    Pure-Python flow sessions scale with processes where threads only
    interleave (the GIL): each worker owns an interpreter, and the
    shared workspace's content-addressed atomic artifact writes make
    concurrent computation idempotent -- no locks, no IPC beyond the
    task payloads.

    Only :func:`backend_task` functions run in workers
    (:meth:`submit_task` / :meth:`run_tasks_ordered`);
    :meth:`map_ordered` is refused rather than silently degraded to
    threads.

    ``close(wait=False)`` **terminates** the worker processes (after
    cancelling queued work) instead of waiting them out: an
    interrupted ``repro serve`` must not leave orphaned children
    computing into the void.  ``jobs == 1`` still runs one worker
    process -- the backend name states where work executes, not how
    much of it runs at once.
    """

    name = "process"

    def __init__(
        self, jobs: int = 1, start_method: Optional[str] = None
    ) -> None:
        super().__init__(jobs)
        self._context = multiprocessing.get_context(
            start_method if start_method else default_start_method()
        )
        self._executor: Optional[ProcessPoolExecutor] = None
        self._lock = threading.Lock()

    def map_ordered(
        self,
        worker: Callable[[Any], Any],
        items: Iterable[Any],
        fold: Optional[Callable[[Iterable[Any]], Any]] = None,
    ) -> Any:
        raise BackendError(
            "the process backend runs registered tasks only; use "
            "run_tasks_ordered(name, payloads) with a @backend_task "
            "function (arbitrary callables cannot cross the process "
            "boundary)"
        )

    # -- registered tasks ---------------------------------------------
    def submit_task(self, name: str, payload: Dict[str, Any]) -> Future:
        """Ship one task to the *persistent* worker-process pool."""
        task = task_named(name)
        with self._lock:
            if self._executor is None:
                self._executor = ProcessPoolExecutor(
                    max_workers=self.jobs, mp_context=self._context
                )
            return _merging(self._executor.submit(
                run_task, task.name, task.module, payload
            ))

    def run_tasks_ordered(
        self,
        name: str,
        payloads: Iterable[Dict[str, Any]],
        fold: Optional[Callable[[Iterable[Any]], Any]] = None,
    ) -> Any:
        """Ship every payload; fold results in submission order.

        Same ordering/fold contract as the thread backend's
        :meth:`~ThreadBackend.map_ordered`; the per-batch executor is
        torn down before returning.
        """
        task = task_named(name)
        if fold is None:
            fold = list
        items = list(payloads)
        with ProcessPoolExecutor(
            max_workers=self.jobs, mp_context=self._context
        ) as pool:
            futures = [
                _merging(
                    pool.submit(run_task, task.name, task.module, payload)
                )
                for payload in items
            ]
            try:
                return fold(future.result() for future in futures)
            finally:
                for future in futures:
                    future.cancel()  # no-op for completed futures

    def warm(self) -> None:
        """Fork all persistent workers *now*, while this process is
        quiet.

        Under the default ``fork`` start method a child inherits every
        lock in whatever state it was at fork time; forking lazily at
        first use -- other threads mid-computation -- can hand a worker
        a lock that is never released.  Long-lived owners (the flow
        service scheduler) warm the pool at startup so every fork
        happens before concurrent work exists.  Each warm-up task
        sleeps briefly so the executor spawns a fresh sibling for the
        next one instead of reusing the first worker.
        """
        futures = [
            self.submit_task("backend.warm", {"seconds": 0.05})
            for _ in range(self.jobs)
        ]
        for future in futures:
            future.result()

    def worker_processes(self) -> Tuple[Any, ...]:
        """The live worker ``multiprocessing.Process`` handles.

        Empty until the first :meth:`submit_task` lazily starts the
        pool.  Exposed so shutdown paths (and their regression tests)
        can verify no child outlives :meth:`close`.
        """
        with self._lock:
            if self._executor is None:
                return ()
            return tuple(
                getattr(self._executor, "_processes", {}).values()
            )

    def close(self, wait: bool = True) -> None:
        """Shut the worker pool down; idempotent.

        ``wait=True`` joins idle workers cleanly.  ``wait=False`` is
        the prompt path: queued work is cancelled and live worker
        processes are **terminated** and reaped, so a drain-timeout
        shutdown (SIGINT under a wedged job) leaves no orphans.
        """
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is None:
            return
        if wait:
            executor.shutdown(wait=True)
            return
        processes = list(getattr(executor, "_processes", {}).values())
        executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            if process.is_alive():
                process.terminate()
        for process in processes:
            process.join(timeout=5.0)


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
def create_backend(name: str, jobs: int = 1) -> ExecutionBackend:
    """Instantiate a backend by its ``--backend`` name."""
    if name == "thread":
        return ThreadBackend(jobs)
    if name == "process":
        return ProcessBackend(jobs)
    raise BackendError(
        f"unknown backend {name!r}; expected one of {', '.join(BACKENDS)}"
    )


def as_backend(
    backend: Union[None, str, ExecutionBackend], jobs: int = 1
) -> ExecutionBackend:
    """Coerce a backend argument: ``None`` -> thread, name -> new
    instance of ``jobs`` workers, instance -> itself (caller-owned)."""
    if backend is None:
        return ThreadBackend(jobs)
    if isinstance(backend, str):
        return create_backend(backend, jobs)
    if isinstance(backend, ExecutionBackend):
        return backend
    raise BackendError(
        f"not a backend: {backend!r} (expected a name from "
        f"{', '.join(BACKENDS)} or an ExecutionBackend)"
    )
