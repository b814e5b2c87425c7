"""The flow-serving subsystem: a long-running front end for the flow.

``repro.service`` turns the one-shot design-time tool into a
multi-tenant server, following the design-time/run-time split of
Weichslgartner et al. (PAPERS.md): sessions *compute* mapping artifacts
once, the service *serves* them cheaply ever after.

Three layers, each usable on its own:

* :class:`FlowScheduler` (:mod:`repro.service.scheduler`) -- the
  one-lock core: accepts FlowSpec submissions from any thread,
  deduplicates and coalesces identical in-flight requests by
  :func:`~repro.flow.fingerprint.flow_request_key`, runs sessions on a
  bounded :class:`~repro.flow.backend.ExecutionBackend` (threads, or
  worker processes with ``backend="process"``), and answers repeated
  requests straight from the workspace
  :class:`~repro.artifacts.store.ArtifactStore` with zero re-analysis.
* :class:`FlowServiceServer` / :func:`serve`
  (:mod:`repro.service.http`) -- the stdlib HTTP JSON API
  (``POST /v1/flows``, ``GET /v1/flows/{id}[/result]``,
  ``GET /v1/artifacts/{kind}/{key}``, ``GET /v1/healthz``, plus the
  run-time platform surface ``POST /v1/platform/apps``,
  ``POST /v1/platform/apps/{id}/depart`` and ``GET /v1/platform``
  backed by :class:`repro.runtime.PlatformManager`), started from the
  CLI as ``python -m repro serve``.
* :class:`FlowServiceClient` (:mod:`repro.service.client`) -- the typed
  client used by tests, examples and CI.

See ``docs/service.md`` for the API reference, the dedup/coalescing
semantics and the byte-identity guarantee.
"""

from repro.service.client import FlowServiceClient, ServiceClientError
from repro.service.http import FlowRequestHandler, FlowServiceServer, serve
from repro.service.scheduler import (
    DONE,
    FAILED,
    QUEUED,
    RESPONSE_KIND,
    RUNNING,
    SOURCE_ARTIFACTS,
    SOURCE_COMPUTED,
    FlowResponse,
    FlowScheduler,
    FlowServiceError,
    QueueFullError,
    UnknownJobError,
)

__all__ = [
    "DONE",
    "FAILED",
    "QUEUED",
    "RESPONSE_KIND",
    "RUNNING",
    "SOURCE_ARTIFACTS",
    "SOURCE_COMPUTED",
    "FlowRequestHandler",
    "FlowResponse",
    "FlowScheduler",
    "FlowServiceClient",
    "FlowServiceError",
    "FlowServiceServer",
    "QueueFullError",
    "ServiceClientError",
    "UnknownJobError",
    "serve",
]
