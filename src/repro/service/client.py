"""Typed stdlib client for the flow service HTTP API.

:class:`FlowServiceClient` wraps the endpoints of
:mod:`repro.service.http` behind methods that accept and return domain
shapes: submissions take a :class:`~repro.flow.spec.FlowSpec`, a parsed
spec document, or a path to a ``.toml``/``.json`` spec file (TOML specs
are converted to their JSON document form client-side via
:meth:`FlowSpec.to_document`); results come back either decoded
(:meth:`result`) or as the exact canonical document text
(:meth:`result_text`) for byte-exact consumers.

Built on ``urllib.request`` only, so the client works anywhere the
repository does -- tests, examples, CI smoke jobs -- with no extra
dependencies.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.exceptions import ReproError
from repro.flow.spec import FlowSpec, load_flow_spec


class ServiceClientError(ReproError):
    """Raised for transport failures and non-2xx API responses.

    ``status`` carries the HTTP status code when the server answered
    (``None`` for transport-level failures), so callers can distinguish
    a malformed spec (400) from a full queue (429).
    """

    def __init__(self, message: str, status: Optional[int] = None):
        super().__init__(message)
        self.status = status


#: Job states a poll loop treats as terminal.
_TERMINAL = ("done", "failed")


class FlowServiceClient:
    """A client bound to one service base URL."""

    def __init__(self, base_url: str, timeout: float = 60.0) -> None:
        if not base_url.startswith(("http://", "https://")):
            raise ServiceClientError(
                f"service URL {base_url!r} is not http:// or https://"
            )
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # ------------------------------------------------------------------
    # submissions
    # ------------------------------------------------------------------
    def submit(
        self, spec: Union[FlowSpec, Dict[str, Any], str, Path]
    ) -> Dict[str, Any]:
        """POST one flow request; returns the job view."""
        return self._json("POST", "/v1/flows", body=_document_of(spec))

    def submit_and_wait(
        self,
        spec: Union[FlowSpec, Dict[str, Any], str, Path],
        timeout: float = 300.0,
    ) -> Dict[str, Any]:
        """Submit, then poll until the job completes.

        Returns the final job view; raises :class:`ServiceClientError`
        when the flow failed server-side.
        """
        view = self.submit(spec)
        if view["status"] not in _TERMINAL:
            view = self.wait(view["id"], timeout=timeout)
        if view["status"] == "failed":
            raise ServiceClientError(
                f"flow {view['spec_name']!r} failed: {view['error']}"
            )
        return view

    # ------------------------------------------------------------------
    # status and results
    # ------------------------------------------------------------------
    def job(self, job_id: str) -> Dict[str, Any]:
        """Current job view (includes per-stage progress)."""
        return self._json("GET", f"/v1/flows/{job_id}")

    def wait(
        self,
        job_id: str,
        timeout: float = 300.0,
        poll_interval: float = 0.2,
    ) -> Dict[str, Any]:
        """Poll the job until done/failed or ``timeout`` seconds pass."""
        deadline = time.monotonic() + timeout
        while True:
            view = self.job(job_id)
            if view["status"] in _TERMINAL:
                return view
            if time.monotonic() >= deadline:
                raise ServiceClientError(
                    f"job {job_id} still {view['status']!r} "
                    f"after {timeout:g}s"
                )
            time.sleep(poll_interval)

    def result_text(self, job_id: str) -> str:
        """The exact canonical ``flow-response`` document text."""
        status, text = self._request("GET", f"/v1/flows/{job_id}/result")
        if status != 200:
            raise ServiceClientError(
                f"job {job_id} has no result yet (HTTP {status})",
                status=status,
            )
        return text

    def result(self, job_id: str) -> Dict[str, Any]:
        """The decoded ``flow-response`` payload of a done job."""
        return json.loads(self.result_text(job_id))

    # ------------------------------------------------------------------
    # artifacts and health
    # ------------------------------------------------------------------
    def artifact_text(self, kind: str, key: str) -> str:
        """Exact on-disk bytes of one workspace artifact."""
        status, text = self._request(
            "GET", f"/v1/artifacts/{kind}/{key}"
        )
        return text

    def artifact(self, kind: str, key: str) -> Dict[str, Any]:
        """One workspace artifact, decoded."""
        return json.loads(self.artifact_text(kind, key))

    def health(self) -> Dict[str, Any]:
        """``GET /v1/healthz``: queue depth plus service counters."""
        return self._json("GET", "/v1/healthz")

    # ------------------------------------------------------------------
    # the run-time platform
    # ------------------------------------------------------------------
    def platform_status(self) -> Dict[str, Any]:
        """``GET /v1/platform``: admitted apps + residual capacity."""
        return self._json("GET", "/v1/platform")

    def platform_admit(
        self, spec: Union[FlowSpec, Dict[str, Any], str, Path]
    ) -> Dict[str, Any]:
        """Admit one application onto the run-time platform.

        Returns the admission decision (app id, chosen operating point,
        placement, guarantee).  A rejection surfaces as
        :class:`ServiceClientError` with ``status == 409``.
        """
        return self._json(
            "POST", "/v1/platform/apps", body=_document_of(spec)
        )

    def platform_depart(
        self, app_id: str, migrate: bool = False
    ) -> Dict[str, Any]:
        """Depart ``app_id``; ``migrate=True`` rebalances survivors."""
        return self._json(
            "POST",
            f"/v1/platform/apps/{app_id}/depart",
            body={"migrate": migrate},
        )

    # ------------------------------------------------------------------
    # transport
    # ------------------------------------------------------------------
    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Tuple[int, str]:
        data = None
        headers = {"Accept": "application/json"}
        if body is not None:
            data = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(
            self.base_url + path, data=data, method=method, headers=headers
        )
        try:
            with urllib.request.urlopen(
                request, timeout=self.timeout
            ) as response:
                return response.status, response.read().decode("utf-8")
        except urllib.error.HTTPError as error:
            text = error.read().decode("utf-8", "replace")
            try:
                detail = json.loads(text).get("error", text)
            except (ValueError, AttributeError):
                detail = text.strip()
            raise ServiceClientError(
                f"{method} {path} -> HTTP {error.code}: {detail}",
                status=error.code,
            ) from None
        except urllib.error.URLError as error:
            raise ServiceClientError(
                f"cannot reach flow service at {self.base_url}: "
                f"{error.reason}"
            ) from None

    def _json(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
    ) -> Dict[str, Any]:
        _, text = self._request(method, path, body=body)
        return json.loads(text)


def _document_of(
    spec: Union[FlowSpec, Dict[str, Any], str, Path],
) -> Dict[str, Any]:
    """The JSON document to POST for any accepted spec form."""
    if isinstance(spec, dict):
        return spec
    if isinstance(spec, FlowSpec):
        return spec.to_document()
    return load_flow_spec(spec).to_document()
