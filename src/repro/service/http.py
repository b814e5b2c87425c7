"""Stdlib HTTP JSON API over a :class:`~repro.service.FlowScheduler`.

A thin, dependency-free transport: every route delegates to the
scheduler and speaks the canonical artifact payloads of
:mod:`repro.artifacts`.  Endpoints (all ``application/json``):

========================================  ==============================
``POST /v1/flows``                        submit a FlowSpec document;
                                          returns the job view (``200``
                                          when served instantly from
                                          artifacts -- then the decoded
                                          result rides along under
                                          ``result`` -- ``202`` while
                                          queued/running/coalesced,
                                          ``400`` malformed spec,
                                          ``429`` queue full)
``GET /v1/flows/{id}``                    slim job status incl.
                                          per-stage progress (never the
                                          result document)
``GET /v1/flows/{id}/result``             the *exact* canonical
                                          ``flow-response`` document
                                          (``202`` while pending,
                                          ``500`` when the job failed)
``GET /v1/artifacts/{kind}/{key}``        exact on-disk bytes of one
                                          workspace artifact
``GET /v1/healthz``                       queue depth, worker slots,
                                          service counters, throughput-
                                          engine analysis count and
                                          platform occupancy
``POST /v1/platform/apps``                admit a FlowSpec's application
                                          onto the run-time platform
                                          (``201`` admitted, ``409``
                                          rejected -- does not fit the
                                          residual platform)
``POST /v1/platform/apps/{id}/depart``    depart one application;
                                          optional JSON body
                                          ``{"migrate": true}``
                                          rebalances the survivors
                                          (``400`` when ``migrate`` is
                                          not a JSON boolean, ``404``
                                          unknown app)
``GET /v1/platform``                      full platform state: admitted
                                          apps, placements, residual
                                          capacity, transition counters
========================================  ==============================

Result and artifact routes serve the stored document text verbatim
(via :meth:`~repro.artifacts.store.ArtifactStore.get_text`), so what a
client receives is byte-identical to what the workspace holds.
Every other method (``PUT``, ``DELETE``, ``HEAD``, ``OPTIONS``, ...)
answers a JSON ``405`` with ``Allow: GET, POST``; the one to ``HEAD``
carries its headers and no body.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.artifacts.schema import ArtifactError
from repro.exceptions import AdmissionError, ReproError, UnknownAppError
from repro.flow.spec import FlowSpecError
from repro.service.scheduler import (
    DONE,
    FAILED,
    FlowScheduler,
    QueueFullError,
    UnknownJobError,
)

#: Largest accepted request body; a FlowSpec document is tiny.
MAX_BODY_BYTES = 1 << 20


class FlowServiceServer(ThreadingHTTPServer):
    """A threading HTTP server bound to one scheduler.

    Handler threads are daemonic, so a blocked client cannot keep the
    process alive past :meth:`shutdown`; the scheduler itself is closed
    by the caller (see :func:`serve`), not the server.
    """

    daemon_threads = True
    # the listen backlog; socketserver's default of 5 resets a burst of
    # concurrent POSTs before the accept loop can take them
    request_queue_size = 128

    def __init__(
        self,
        scheduler: FlowScheduler,
        host: str = "127.0.0.1",
        port: int = 0,
        quiet: bool = True,
    ) -> None:
        self.scheduler = scheduler
        self.quiet = quiet
        super().__init__((host, port), FlowRequestHandler)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"


def serve(
    workspace: Union[str, Path],
    host: str = "127.0.0.1",
    port: int = 0,
    jobs: int = 2,
    max_queue: int = 32,
    quiet: bool = True,
    backend: str = "thread",
    replica: str = "",
) -> FlowServiceServer:
    """Scheduler + bound server over ``workspace`` (not yet serving).

    The caller drives ``server.serve_forever()`` (possibly on its own
    thread) and owns shutdown: ``server.shutdown()``,
    ``server.server_close()``, then ``server.scheduler.close()``.
    ``port=0`` binds an ephemeral port -- read it back from
    ``server.url``.  ``backend="process"`` computes flows on worker
    processes; ``replica`` names this instance in health and job views
    (replicas sharing a workspace need no other coordination -- see
    docs/service.md).  When the address cannot be bound, the scheduler
    (and any warmed worker processes) is closed before the ``OSError``
    propagates.
    """
    scheduler = FlowScheduler(
        workspace,
        jobs=jobs,
        max_queue=max_queue,
        backend=backend,
        replica=replica or None,
    )
    try:
        return FlowServiceServer(
            scheduler, host=host, port=port, quiet=quiet
        )
    except BaseException:
        scheduler.close()
        raise


class FlowRequestHandler(BaseHTTPRequestHandler):
    """Routes one connection's requests onto the server's scheduler."""

    server_version = "repro-flow-service/1"
    protocol_version = "HTTP/1.1"
    # headers and body go out as separate writes; without TCP_NODELAY,
    # Nagle's algorithm holds the body back until the client's delayed
    # ACK, stalling every keep-alive response by tens of milliseconds
    disable_nagle_algorithm = True
    # per-connection socket timeout, in seconds: a client that stalls
    # mid-request (or idles on a kept-alive connection) is disconnected
    # instead of pinning a handler thread forever; http.server logs the
    # timeout through log_message and closes the connection
    timeout = 30.0

    # the server is annotated for the benefit of route helpers
    server: FlowServiceServer

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if not self.server.quiet:
            super().log_message(format, *args)

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def do_POST(self) -> None:  # noqa: N802 - http.server API
        try:
            length = self._content_length()
        except ValueError as error:
            # the body's extent is unknown; never reuse this connection
            self.close_connection = True
            return self._send_error(400, str(error))
        parts = self._route()
        if parts == ["v1", "flows"]:
            return self._submit(length)
        if parts == ["v1", "platform", "apps"]:
            return self._platform_admit(length)
        if (
            len(parts) == 5
            and parts[:3] == ["v1", "platform", "apps"]
            and parts[4] == "depart"
        ):
            return self._platform_depart(parts[3], length)
        # the body was never read; keeping the connection alive would
        # let its bytes be parsed as the next request
        self.close_connection = True
        self._send_error(404, f"no such endpoint: POST {self.path}")

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        parts = self._route()
        if parts == ["v1", "healthz"]:
            return self._send_json(200, self.server.scheduler.health())
        if parts == ["v1", "platform"]:
            return self._platform_status()
        if len(parts) == 3 and parts[:2] == ["v1", "flows"]:
            return self._job_status(parts[2])
        if (
            len(parts) == 4
            and parts[:2] == ["v1", "flows"]
            and parts[3] == "result"
        ):
            return self._job_result(parts[2])
        if len(parts) == 4 and parts[:2] == ["v1", "artifacts"]:
            return self._artifact(parts[2], parts[3])
        self._send_error(404, f"no such endpoint: GET {self.path}")

    def _method_not_allowed(self) -> None:
        # any body goes unread; never reuse this connection
        self.close_connection = True
        self._send_error(
            405, f"method {self.command} not allowed on {self.path}"
        )

    def __getattr__(self, name: str) -> Any:
        # http.server dispatches a request to ``do_<METHOD>`` and answers
        # a method without one with an HTML 501
        if name.startswith("do_"):
            return self._method_not_allowed
        raise AttributeError(name)

    # ------------------------------------------------------------------
    # handlers
    # ------------------------------------------------------------------
    def _submit(self, length: int) -> None:
        try:
            document = self._read_json(length)
        except ValueError as error:
            # the body may be partly or wholly unread (missing length,
            # oversized, undecodable); never reuse this connection
            self.close_connection = True
            return self._send_error(400, str(error))
        try:
            view = self.server.scheduler.submit(document)
        except QueueFullError as error:
            return self._send_error(429, str(error))
        except FlowSpecError as error:
            return self._send_error(400, str(error))
        except ReproError as error:
            return self._send_error(500, str(error))
        self._send_json(200 if view["status"] == DONE else 202, view)

    def _job_status(self, job_id: str) -> None:
        # the status view stays slim -- polling a done job must not
        # re-parse and re-ship the (large) response document every
        # time; /result delivers it once, verbatim
        try:
            view = self.server.scheduler.get(job_id)
        except UnknownJobError as error:
            return self._send_error(404, str(error))
        self._send_json(200, view)

    def _job_result(self, job_id: str) -> None:
        try:
            view = self.server.scheduler.get(job_id)
            text = (
                self.server.scheduler.result_text(job_id)
                if view["status"] == DONE
                else None
            )
        except UnknownJobError as error:  # includes eviction mid-request
            return self._send_error(404, str(error))
        if view["status"] == FAILED:
            return self._send_error(
                500, f"flow {view['spec_name']!r} failed: {view['error']}"
            )
        if view["status"] != DONE:
            return self._send_json(202, view)
        assert text is not None  # done implies a stored response
        self._send_document(200, text)

    def _platform_admit(self, length: int) -> None:
        try:
            document = self._read_json(length)
        except ValueError as error:
            self.close_connection = True
            return self._send_error(400, str(error))
        try:
            decision = self.server.scheduler.platform_admit(document)
        except QueueFullError as error:
            return self._send_error(429, str(error))
        except AdmissionError as error:
            # typed rejection: the residual platform cannot host the
            # app; nothing already running was touched
            return self._send_error(409, str(error))
        except FlowSpecError as error:
            return self._send_error(400, str(error))
        except ReproError as error:
            return self._send_error(500, str(error))
        self._send_json(201, decision)

    def _platform_depart(self, app_id: str, length: int) -> None:
        # the body is optional ({"migrate": true}); only read when sent
        document: Dict[str, Any] = {}
        if length > 0:
            try:
                document = self._read_json(length)
            except ValueError as error:
                self.close_connection = True
                return self._send_error(400, str(error))
        migrate = document.get("migrate", False)
        if not isinstance(migrate, bool):
            return self._send_error(
                400, f"'migrate' must be JSON true or false, got {migrate!r}"
            )
        try:
            outcome = self.server.scheduler.platform_depart(
                app_id, migrate=migrate
            )
        except UnknownAppError as error:
            return self._send_error(404, str(error))
        except ReproError as error:
            return self._send_error(500, str(error))
        self._send_json(200, outcome)

    def _platform_status(self) -> None:
        try:
            status = self.server.scheduler.platform_status()
        except ReproError as error:
            return self._send_error(500, str(error))
        self._send_json(200, status)

    def _artifact(self, kind: str, key: str) -> None:
        key = key[:-5] if key.endswith(".json") else key
        try:
            text = self.server.scheduler.store.get_text(kind, key)
        except ArtifactError as error:
            return self._send_error(400, str(error))
        if text is None:
            return self._send_error(
                404, f"no artifact {kind}/{key} in the workspace"
            )
        self._send_document(200, text)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _route(self) -> List[str]:
        path = self.path.split("?", 1)[0]
        return [part for part in path.split("/") if part]

    def _content_length(self) -> int:
        """The request's ``Content-Length`` (0 when absent); raises
        :class:`ValueError` on a malformed or negative value."""
        header = self.headers.get("Content-Length")
        if not header:
            return 0
        error = ValueError(f"invalid Content-Length header {header!r}")
        try:
            length = int(header)
        except ValueError:
            raise error from None
        if length < 0:
            raise error
        return length

    def _read_json(self, length: int) -> Dict[str, Any]:
        if length <= 0:
            raise ValueError("request body must be a JSON FlowSpec document")
        if length > MAX_BODY_BYTES:
            raise ValueError(
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        raw = self.rfile.read(length)
        try:
            document = json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError) as error:
            # decode and syntax errors are ValueErrors; RecursionError
            # is nesting deeper than the parser's stack
            raise ValueError(f"invalid JSON request body: {error}") from None
        if not isinstance(document, dict):
            raise ValueError(
                "request body must be a JSON object (a FlowSpec document)"
            )
        return document

    def _send_json(self, code: int, payload: Dict[str, Any]) -> None:
        self._send_document(
            code, json.dumps(payload, sort_keys=True) + "\n"
        )

    def _send_error(self, code: int, message: str) -> None:
        self._send_json(code, {"error": message, "status_code": code})

    def _send_document(self, code: int, text: str) -> None:
        body = text.encode("utf-8")
        self.send_response(code)
        self.send_header("Content-Type", "application/json; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        if code == 405:
            self.send_header("Allow", "GET, POST")
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        if self.command != "HEAD":
            self.wfile.write(body)
