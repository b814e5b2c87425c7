"""Unit tests for the typed service client, without a flow service.

The live round trips are in ``test_http.py``; these pin the client's
own logic -- spec forms, polling, error mapping -- against stubbed
transports.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from repro.flow.spec import FlowSpec
from repro.scenarios import (
    ScenarioSpec,
    render_flow_spec_toml,
    scenario_flow_spec,
)
from repro.service import FlowServiceClient, ServiceClientError
from repro.service.client import _document_of


@pytest.fixture
def flow_spec():
    return scenario_flow_spec(ScenarioSpec(family="chain", seed=4,
                                           actors=4))


class TestSpecForms:
    def test_a_dict_is_posted_as_is(self):
        document = {"name": "x", "app": {"sequence": "gradient"}}
        assert _document_of(document) is document

    def test_a_flow_spec_becomes_its_document(self, flow_spec):
        assert _document_of(flow_spec) == flow_spec.to_document()

    def test_a_toml_path_becomes_its_document(self, flow_spec, tmp_path):
        path = tmp_path / "spec.toml"
        path.write_text(render_flow_spec_toml(flow_spec), encoding="utf-8")
        assert _document_of(path) == flow_spec.to_document()

    def test_a_json_path_string_becomes_its_document(self, flow_spec,
                                                     tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(flow_spec.to_document()),
                        encoding="utf-8")
        document = _document_of(str(path))
        assert FlowSpec.from_dict(document) == flow_spec


class TestPolling:
    def test_base_url_trailing_slash_is_dropped(self):
        assert FlowServiceClient("http://h:1/").base_url == "http://h:1"

    @pytest.mark.parametrize("url", ["notaurl", "ftp://h:1", ""])
    def test_a_base_url_that_is_not_http_is_refused(self, url):
        with pytest.raises(ServiceClientError, match="not http"):
            FlowServiceClient(url)

    def test_wait_returns_the_first_terminal_view(self, monkeypatch):
        client = FlowServiceClient("http://unused")
        views = iter([{"status": "queued"}, {"status": "running"},
                      {"status": "done", "id": "job-1"}])
        monkeypatch.setattr(client, "job", lambda job_id: next(views))
        assert client.wait("job-1", poll_interval=0) == {
            "status": "done", "id": "job-1",
        }

    def test_wait_times_out_naming_the_status(self, monkeypatch):
        client = FlowServiceClient("http://unused")
        monkeypatch.setattr(client, "job",
                            lambda job_id: {"status": "running"})
        with pytest.raises(ServiceClientError,
                           match="job-1 still 'running' after 0s"):
            client.wait("job-1", timeout=0, poll_interval=0)

    def test_submit_and_wait_does_not_poll_an_artifact_hit(
        self, monkeypatch
    ):
        client = FlowServiceClient("http://unused")
        hit = {"status": "done", "id": "job-2", "source": "artifacts"}
        monkeypatch.setattr(client, "submit", lambda spec: hit)

        def job(job_id):
            raise AssertionError("a terminal submit view was polled")

        monkeypatch.setattr(client, "job", job)
        assert client.submit_and_wait({"name": "x"}) is hit

    def test_submit_and_wait_raises_on_a_failed_flow(self, monkeypatch):
        client = FlowServiceClient("http://unused")
        monkeypatch.setattr(client, "submit", lambda spec: {
            "status": "failed", "id": "job-3", "spec_name": "bad",
            "error": "no tile7",
        })
        with pytest.raises(ServiceClientError,
                           match="flow 'bad' failed: no tile7") as outcome:
            client.submit_and_wait({"name": "bad"})
        assert outcome.value.status is None

    def test_result_of_a_pending_job_raises_with_its_status(
        self, monkeypatch
    ):
        client = FlowServiceClient("http://unused")
        monkeypatch.setattr(client, "_request",
                            lambda method, path, body=None: (202, "{}"))
        with pytest.raises(ServiceClientError,
                           match="no result yet") as outcome:
            client.result_text("job-4")
        assert outcome.value.status == 202


class _PlainTextError(BaseHTTPRequestHandler):
    """Answers every GET like a proxy in front of the service would."""

    def do_GET(self):
        body = b"  upstream gone  \n"
        self.send_response(502)
        self.send_header("Content-Type", "text/plain")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_non_json_error_body_is_reported_stripped():
    server = HTTPServer(("127.0.0.1", 0), _PlainTextError)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        host, port = server.server_address[:2]
        client = FlowServiceClient(f"http://{host}:{port}", timeout=10)
        with pytest.raises(ServiceClientError) as outcome:
            client.health()
        assert outcome.value.status == 502
        assert str(outcome.value) == (
            "GET /v1/healthz -> HTTP 502: upstream gone"
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
