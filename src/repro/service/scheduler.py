"""Flow-serving scheduler: dedup, coalescing, artifact fast path.

The design-time/run-time split of Weichslgartner et al. (PAPERS.md),
operationalized: mapping artifacts are *computed* once -- by a
:class:`~repro.flow.session.FlowSession` running on a bounded worker
pool -- and *served* cheaply ever after, straight from the workspace's
:class:`~repro.artifacts.store.ArtifactStore`.

:class:`FlowScheduler` accepts FlowSpec submissions from any thread.
Its bookkeeping -- the in-flight and tracked-job maps and the queue
count -- lives under one :class:`threading.Lock`, which is held only
for those constant-time decisions, never across a computation, a
platform call or a future's done-callback:

* **dedup / coalescing** -- requests are keyed by
  :func:`repro.flow.fingerprint.flow_request_key`, the content hash of
  everything a session reads from the spec.  A request whose key is
  already *in flight* joins the existing job (one computation fans out
  to every waiter); a request whose key is already *served* comes back
  instantly from the stored ``flow-response`` artifact with zero
  re-analysis -- sequentially, concurrently, or after a server restart
  over a warm workspace.
* **bounded execution** -- computations run on a persistent
  :class:`~repro.flow.backend.ExecutionBackend` (the same worker
  plumbing :func:`repro.flow.session.run_batch` fans out on) with at
  most ``max_queue`` jobs queued or running; excess submissions are
  rejected with :class:`QueueFullError` (HTTP 429 at the API layer).
  A job's future settles it through a done-callback.
  ``backend="process"`` runs each session in a worker *process* --
  specs ship as :meth:`~repro.flow.spec.FlowSpec.to_document` JSON,
  responses come back as canonical payloads, and the pure-Python
  analyses scale with cores instead of contending on the GIL.  N
  replicas of the scheduler may share one workspace with no
  coordination beyond the filesystem: the store's atomic idempotent
  writes make concurrent computation of the same key safe, and each
  replica carries an identity (``replica`` in health and job views)
  so per-replica counters stay attributable under load.
* **per-stage progress** -- on the thread backend each job subscribes
  to the session's :data:`~repro.flow.session.ProgressCallback`, so a
  status poll of a running job reports which stage is executing and
  which stages computed vs resumed; a worker process returns its stage
  records with the response.
* **the run-time platform** -- admissions, departures and status reads
  hold a queue slot (admissions count against ``max_queue``) and run on
  the calling thread; the
  :class:`~repro.runtime.manager.PlatformManager`'s own lock serializes
  its transitions.

The served document, :class:`FlowResponse`, is the *deterministic*
projection of a session result: the canonical mapping payloads per
use-case, the use-case union, guarantees and constraint verdicts --
but no wall-clock stage timings.  Two computations of the same request,
on any machine under any scheduling, therefore produce byte-identical
canonical payloads, and every embedded mapping payload is byte-identical
to the ``mapping-result`` artifact ``repro run --workspace`` persists
for the same spec.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Union

from repro.artifacts.schema import (
    canonical_json,
    from_payload,
    register,
    to_payload,
)
from repro.artifacts.store import ArtifactStore
from repro.counters import PROCESS, Counters
from repro.exceptions import ReproError, UnknownAppError
from repro.flow.backend import (
    ExecutionBackend,
    as_backend,
    backend_task,
)
from repro.flow.fingerprint import flow_request_key
from repro.flow.session import SessionResult, StageRecord, execute_spec
from repro.flow.spec import FlowSpec, load_flow_spec
from repro.flow.usecases import UseCaseMapping
from repro.mapping.spec import MappingResult
from repro.runtime.manager import PlatformManager

#: Artifact kind of the served response documents.
RESPONSE_KIND = "flow-response"

#: Job lifecycle states (``status`` in every job view).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: Where a completed job's response came from (``source`` in the view).
SOURCE_COMPUTED = "computed"
SOURCE_ARTIFACTS = "artifacts"


class FlowServiceError(ReproError):
    """Raised for scheduler misuse and failed service operations."""


class QueueFullError(FlowServiceError):
    """Raised when a submission exceeds the scheduler's queue bound."""


class UnknownJobError(FlowServiceError):
    """Raised when a job id does not name a tracked job."""


# ----------------------------------------------------------------------
# the served document
# ----------------------------------------------------------------------
@dataclass
class FlowResponse:
    """Deterministic result document of one served flow request.

    A projection of :class:`~repro.flow.session.SessionResult` that
    excludes everything wall-clock (stage timings, computed-vs-resumed
    provenance): only the analysis content survives, so the canonical
    payload of a request is a pure function of the request -- the
    property the service's byte-identity guarantee rests on.  Stage
    provenance is still observable per job via the status endpoint.
    """

    spec_name: str
    request_key: str
    mappings: Dict[str, MappingResult]
    use_cases: Optional[UseCaseMapping] = None

    @classmethod
    def from_session(
        cls, request_key: str, result: SessionResult
    ) -> "FlowResponse":
        return cls(
            spec_name=result.spec_name,
            request_key=request_key,
            mappings=dict(result.mappings),
            use_cases=result.use_cases,
        )

    def guarantees(self) -> Dict[str, str]:
        """Exact guaranteed throughput per use-case (fraction strings)."""
        return {
            name: str(result.guaranteed_throughput)
            for name, result in sorted(self.mappings.items())
        }

    def constraints_met(self) -> bool:
        return all(r.constraint_met for r in self.mappings.values())


def _encode_response(response: FlowResponse) -> Dict[str, Any]:
    return {
        "spec_name": response.spec_name,
        "request_key": response.request_key,
        "mappings": {
            name: to_payload(result)
            for name, result in response.mappings.items()
        },
        "use_cases": (
            None
            if response.use_cases is None
            else to_payload(response.use_cases)
        ),
        "guarantees": response.guarantees(),
        "constraints_met": response.constraints_met(),
    }


def _decode_response(payload: Dict[str, Any]) -> FlowResponse:
    return FlowResponse(
        spec_name=payload["spec_name"],
        request_key=payload["request_key"],
        mappings={
            name: from_payload(p)
            for name, p in payload["mappings"].items()
        },
        use_cases=(
            None
            if payload["use_cases"] is None
            else from_payload(payload["use_cases"])
        ),
    )


register(RESPONSE_KIND, FlowResponse, _encode_response, _decode_response)


# ----------------------------------------------------------------------
# jobs
# ----------------------------------------------------------------------
class Job:
    """One scheduled flow request and its (possibly shared) outcome.

    Mutated from several threads -- the submitter and the future's
    done-callback (status transitions) and the worker running the
    session (stage progress) -- so all state lives behind the job's own
    lock and escapes only as :meth:`view` snapshots.
    """

    def __init__(
        self,
        job_id: str,
        request_key: str,
        spec: FlowSpec,
        replica: str = "",
    ):
        self.id = job_id
        self.request_key = request_key
        self.spec = spec
        self.spec_name = spec.name
        self.replica = replica
        self.done = threading.Event()
        self._lock = threading.Lock()
        self._status = QUEUED
        self._source: Optional[str] = None
        self._error: Optional[str] = None
        self._stages: List[Dict[str, Any]] = []
        self._payload_text: Optional[str] = None

    # -- session-side: the ProgressCallback of this job's session ------
    def record_progress(
        self, event: str, stage: str, record: Optional[StageRecord]
    ) -> None:
        with self._lock:
            if event == "start":
                self._stages.append(
                    {"stage": stage, "status": RUNNING, "seconds": None}
                )
            elif event == "finish" and record is not None:
                for entry in reversed(self._stages):
                    if entry["stage"] == stage:
                        entry["status"] = record.status
                        entry["seconds"] = record.seconds
                        break

    def replace_stages(self, entries: List[Dict[str, Any]]) -> None:
        """Backfill stage records computed in a worker process.

        A process-backed job cannot stream per-stage progress across
        the boundary; the worker returns the finished stage list with
        its result and it lands here in one shot.
        """
        with self._lock:
            self._stages = [dict(entry) for entry in entries]

    # -- scheduler-side transitions ------------------------------------
    def mark_running(self) -> None:
        with self._lock:
            self._status = RUNNING

    def mark_done(self, source: str, payload_text: str) -> None:
        with self._lock:
            self._status = DONE
            self._source = source
            self._payload_text = payload_text
        self.done.set()

    def mark_failed(self, error: str) -> None:
        with self._lock:
            self._status = FAILED
            self._error = error
            # the stage whose compute raised got a "start" event but no
            # "finish"; a failed job must not report a running stage
            for entry in self._stages:
                if entry["status"] == RUNNING:
                    entry["status"] = FAILED
        self.done.set()

    # -- reads ---------------------------------------------------------
    @property
    def status(self) -> str:
        with self._lock:
            return self._status

    def result_text(self) -> Optional[str]:
        """The exact canonical response document (``None`` until done)."""
        with self._lock:
            return self._payload_text

    def view(self, coalesced: bool = False) -> Dict[str, Any]:
        """JSON-able snapshot of the job, as the API serves it."""
        with self._lock:
            return {
                "id": self.id,
                "request_key": self.request_key,
                "spec_name": self.spec_name,
                "status": self._status,
                "source": self._source,
                "error": self._error,
                "coalesced": coalesced,
                "replica": self.replica,
                "stages": [dict(entry) for entry in self._stages],
            }


#: A scheduler's own counts (``counters`` in ``GET /v1/healthz``).
SERVICE_COUNTS = ("submitted", "coalesced", "artifact_hits", "computed",
                  "failed")


# ----------------------------------------------------------------------
# the response, computed on either backend
# ----------------------------------------------------------------------
def _respond(
    request_key: str, result: SessionResult, store: ArtifactStore
) -> str:
    """Persist the response of one computed session; returns the exact
    stored document (canonical text + trailing newline)."""
    payload = to_payload(FlowResponse.from_session(request_key, result))
    store.put(RESPONSE_KIND, request_key, payload)
    return canonical_json(payload) + "\n"


@backend_task("service.compute-response")
def _compute_response_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """Worker-process side of one flow computation.

    The request crosses the boundary as its spec document plus the
    request key; the worker runs the session against the shared
    workspace, persists the ``flow-response`` artifact (atomic,
    idempotent -- concurrent workers and replicas computing the same
    key write identical bytes) and returns the exact canonical
    response text plus the finished stage records for the job view.
    (Its engine and power counts come back through the backend.)
    """
    spec = FlowSpec.from_dict(payload["document"])
    workspace = Path(payload["workspace"])
    store = ArtifactStore(workspace / "artifacts")
    result = execute_spec(spec, workspace, store=store)
    return {
        "text": _respond(payload["request_key"], result, store),
        "stages": [
            {
                "stage": record.stage,
                "status": record.status,
                "seconds": record.seconds,
            }
            for record in result.stages
        ],
    }


# ----------------------------------------------------------------------
# the scheduler
# ----------------------------------------------------------------------
class FlowScheduler:
    """Accepts FlowSpec submissions; dedups, coalesces, runs, serves.

    Every public method may be called from any thread (the HTTP layer
    calls from its per-connection handler threads).  See the module
    docstring for the submission semantics; :meth:`close` drains
    in-flight jobs and shuts the worker pool down.
    """

    def __init__(
        self,
        workspace: Union[str, Path],
        jobs: int = 2,
        max_queue: int = 32,
        store: Optional[ArtifactStore] = None,
        history_limit: int = 1024,
        backend: Union[None, str, ExecutionBackend] = None,
        replica: Optional[str] = None,
    ) -> None:
        if jobs < 1:
            raise FlowServiceError(f"jobs must be >= 1, got {jobs}")
        if max_queue < 1:
            raise FlowServiceError(
                f"max_queue must be >= 1, got {max_queue}"
            )
        if history_limit < 1:
            raise FlowServiceError(
                f"history_limit must be >= 1, got {history_limit}"
            )
        self.workspace = Path(workspace)
        self.store = (
            store
            if store is not None
            else ArtifactStore(self.workspace / "artifacts")
        )
        self.max_queue = max_queue
        self.history_limit = history_limit
        #: The execution backend ("pool" is its historic name here):
        #: "thread" computes in this process, "process" on worker
        #: processes.
        self.pool = as_backend(backend, jobs)
        #: Replica identity, surfaced in health and every job view so
        #: each replica's computed/coalesced counts stay attributable
        #: when N schedulers share one workspace.
        self.replica = (
            replica if replica else f"replica-{os.getpid()}"
        )
        # fork the process-backend workers now, while this process is
        # quiet -- forking lazily at first request risks inheriting a
        # lock another thread holds mid-operation
        self.pool.warm()
        self.counters = Counters(SERVICE_COUNTS)
        # guards _jobs, _inflight, _platform, _pending and _closed
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._inflight: Dict[str, Job] = {}
        self._platform: Optional[PlatformManager] = None
        self._ids = itertools.count(1)
        self._pending = 0  # queued + running jobs and platform calls
        self._closed = False

    # ------------------------------------------------------------------
    # public API (any thread)
    # ------------------------------------------------------------------
    def submit(
        self, request: Union[FlowSpec, Dict[str, Any], str, Path]
    ) -> Dict[str, Any]:
        """Submit one flow request; returns the job view.

        ``request`` is a :class:`FlowSpec`, a parsed spec document
        (what ``POST /v1/flows`` receives), or a path to a spec file.
        Malformed documents raise
        :class:`~repro.flow.spec.FlowSpecError` before anything is
        enqueued; a full queue raises :class:`QueueFullError`.
        """
        spec = self._coerce(request)
        key = flow_request_key(spec)
        with self._lock:
            self._check_open()
            self.counters.add("submitted")
            inflight = self._inflight.get(key)
            if inflight is not None:
                # coalesce: one computation fans out to every waiter
                self.counters.add("coalesced")
                return inflight.view(coalesced=True)
            text = self.store.get_text(RESPONSE_KIND, key)
            if text is not None:
                # the run-time fast path: served straight from artifacts
                self.counters.add("artifact_hits")
                job = self._new_job(key, spec)
                job.mark_done(SOURCE_ARTIFACTS, text)
            else:
                self._take_slot(bounded=True)
                job = self._inflight[key] = self._new_job(key, spec)
            view = job.view()
        if text is None:
            self._start(job)
        else:
            # the document rides along in the submit response -- it is
            # already in hand, and making the client fetch it by id
            # would race bounded-history eviction under load
            view["result"] = json.loads(text)
        return view

    def get(self, job_id: str) -> Dict[str, Any]:
        """Current view of one job; raises :class:`UnknownJobError`."""
        return self._job(job_id).view()

    def wait(self, job_id: str, timeout: float = 300.0) -> Dict[str, Any]:
        """Block until the job completes (or ``timeout`` seconds pass)."""
        job = self._job(job_id)
        if not job.done.wait(timeout):
            raise FlowServiceError(
                f"job {job_id} still {job.status!r} after {timeout:g}s"
            )
        return job.view()

    def result_text(self, job_id: str) -> Optional[str]:
        """Exact canonical response text of a done job, else ``None``."""
        return self._job(job_id).result_text()

    def health(self) -> Dict[str, Any]:
        """Queue depth plus the monotonic counters (``/v1/healthz``).

        ``counters`` are this scheduler's own; ``engine`` (throughput
        analyses), ``sim`` (simulator instants) and ``power`` (estimates;
        zero unless a client opted into budgets, see docs/power.md) are
        the process-wide :mod:`repro.counters`, which include the counts
        of process-backend workers.
        """
        platform = self._platform
        return {
            "status": "ok",
            "workspace": str(self.workspace),
            "replica": self.replica,
            "backend": self.pool.name,
            "worker_slots": self.pool.jobs,
            "max_queue": self.max_queue,
            "history_limit": self.history_limit,
            "queue_depth": self._pending,
            "jobs_tracked": len(self._jobs),
            "counters": self.counters.snapshot(),
            "engine": PROCESS.snapshot("engine"),
            "sim": PROCESS.snapshot("sim"),
            "power": PROCESS.snapshot("power"),
            "platform": (
                platform.occupancy()
                if platform is not None
                else {"configured": False}
            ),
        }

    # -- the run-time platform (``/v1/platform``) ----------------------
    def platform_admit(
        self, request: Union[FlowSpec, Dict[str, Any], str, Path]
    ) -> Dict[str, Any]:
        """Admit one application onto the workspace's platform.

        The first admission configures the platform to the spec's
        architecture (or resumes the journaled one); later admissions
        must target the same architecture.  Raises
        :class:`~repro.exceptions.AdmissionError` (HTTP 409) when the
        application does not fit the residual platform.  Admission
        counts against the same queue bound as flow computations.
        """
        spec = self._coerce(request)
        with self._platform_slot(spec.architecture, bounded=True) as manager:
            return manager.admit(spec)

    def platform_depart(
        self, app_id: str, migrate: bool = False
    ) -> Dict[str, Any]:
        """Depart ``app_id``; optionally migrate the survivors."""
        with self._platform_slot() as manager:
            if manager is None:
                raise UnknownAppError(
                    f"no platform configured; cannot depart {app_id!r}"
                )
            return manager.depart(app_id, migrate)

    def platform_status(self) -> Dict[str, Any]:
        """Full platform state (``GET /v1/platform``)."""
        with self._platform_slot() as manager:
            if manager is None:
                return {"configured": False}
            return manager.status()

    def close(self, timeout: float = 60.0) -> None:
        """Drain in-flight jobs, shut the pool down.

        Bounded by ``timeout``: if the drain times out (a wedged job),
        the pool is released without joining its workers, so the caller
        gets control back instead of blocking behind the hung session.
        On the process backend that prompt path *terminates* the worker
        processes (and cancels queued work), so an interrupted
        ``repro serve`` leaves no orphaned children behind a hung job.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            inflight = list(self._inflight.values())
        deadline = time.monotonic() + timeout
        drained = all(
            job.done.wait(max(0.0, deadline - time.monotonic()))
            for job in inflight
        )
        self.pool.close(wait=drained)

    def __enter__(self) -> "FlowScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _start(self, job: Job) -> None:
        """Dispatch an enqueued job; its future's done-callback settles
        it.  Called without the lock: a future that has already
        finished runs the callback inline."""
        try:
            if self.pool.name == "process":
                # the job leaves this process: mark it running at
                # dispatch (no cross-process progress stream) and
                # backfill its stage records with the result
                job.mark_running()
                future = self.pool.submit_task(
                    "service.compute-response",
                    {
                        "document": job.spec.to_document(),
                        "workspace": str(self.workspace),
                        "request_key": job.request_key,
                    },
                )
            else:
                # thread-side on purpose: _compute streams per-stage
                # progress into the job, which a worker process cannot
                future = self.pool.submit(self._compute, job)
        except Exception as error:  # noqa: BLE001 - a closed or broken
            # pool fails the job like any other error
            future = Future()
            future.set_exception(error)
        future.add_done_callback(functools.partial(self._settle, job))

    def _settle(self, job: Job, future: Future) -> None:
        """Done-callback: record a job's outcome and free its slot."""
        try:
            outcome = future.result()
            if self.pool.name == "process":
                job.replace_stages(outcome["stages"])
                outcome = outcome["text"]
        except Exception as error:  # noqa: BLE001 - job outcomes are
            # reported through the job, never raised into the pool
            detail = (
                str(error)
                if isinstance(error, ReproError)
                else f"{type(error).__name__}: {error}"
            )
            job.mark_failed(detail)
            self.counters.add("failed")
        else:
            job.mark_done(SOURCE_COMPUTED, outcome)
            self.counters.add("computed")
        with self._lock:
            self._pending -= 1
            del self._inflight[job.request_key]

    @contextlib.contextmanager
    def _platform_slot(
        self, arch_spec=None, bounded: bool = False
    ) -> Iterator[Optional[PlatformManager]]:
        """Yield the platform manager, holding a queue slot meanwhile.

        The first call resumes the workspace's journaled platform, or
        configures a fresh one from ``arch_spec`` (when given); with
        neither, the manager is ``None`` and no slot is taken.  Opening
        happens once, under the lock, so two first calls cannot both
        journal a configuration; the caller then runs on the manager
        without the lock.
        """
        with self._lock:
            self._check_open()
            if self._platform is None:
                self._platform = PlatformManager.open(
                    store=self.store, arch_spec=arch_spec
                )
            manager = self._platform
            if manager is not None:
                self._take_slot(bounded)
        try:
            yield manager
        finally:
            if manager is not None:
                with self._lock:
                    self._pending -= 1

    # ------------------------------------------------------------------
    # worker-side
    # ------------------------------------------------------------------
    def _compute(self, job: Job) -> str:
        """Run the session and persist the response (worker thread).

        The running transition happens here, not at enqueue time, so a
        status poll distinguishes a job waiting for a worker slot
        (``queued``) from one actually executing (``running``).
        """
        job.mark_running()
        result = execute_spec(
            job.spec,
            self.workspace,
            store=self.store,
            progress=job.record_progress,
        )
        return _respond(job.request_key, result, self.store)

    # ------------------------------------------------------------------
    # helpers (lock held where noted)
    # ------------------------------------------------------------------
    def _coerce(
        self, request: Union[FlowSpec, Dict[str, Any], str, Path]
    ) -> FlowSpec:
        if isinstance(request, FlowSpec):
            return request
        if isinstance(request, dict):
            return FlowSpec.from_dict(request)
        return load_flow_spec(request)

    def _check_open(self) -> None:
        """Lock held: refuse work once :meth:`close` has begun."""
        if self._closed:
            raise FlowServiceError("scheduler is closed")

    def _take_slot(self, bounded: bool) -> None:
        """Lock held: count one more queued or running job or platform
        call; a ``bounded`` caller is refused at ``max_queue``."""
        if bounded and self._pending >= self.max_queue:
            raise QueueFullError(
                f"queue full: {self._pending} job(s) pending "
                f"(max {self.max_queue}); retry later"
            )
        self._pending += 1

    def _job(self, job_id: str) -> Job:
        job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"unknown job {job_id!r}")
        return job

    def _new_job(self, key: str, spec: FlowSpec) -> Job:
        """Lock held: track a new job, evicting the oldest *finished*
        ones.

        Job views (and their response texts) are transient serving
        state -- the durable record is the workspace artifact -- so the
        tracked-job map is bounded at ``history_limit``: a long-running
        server's memory stays flat under sustained traffic.  Queued and
        running jobs are never evicted; a status poll for an evicted id
        gets 404, and resubmitting the request is an artifact hit.
        """
        job = Job(
            f"job-{next(self._ids):06d}", key, spec, replica=self.replica
        )
        self._jobs[job.id] = job
        if len(self._jobs) > self.history_limit:
            for old in list(self._jobs.values()):
                if len(self._jobs) <= self.history_limit:
                    break
                if old.done.is_set():
                    del self._jobs[old.id]
        return job
