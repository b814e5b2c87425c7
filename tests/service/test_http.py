"""Tests for the HTTP JSON API and the typed client."""

import json
import threading

import pytest

from repro.service import FlowServiceClient, ServiceClientError, serve

SOLO = {
    "name": "solo",
    "app": {"sequence": "gradient", "frames": 1},
    "architecture": {"tiles": 2},
    "mapping": {"fixed": {"VLD": "tile0"}},
}


@pytest.fixture
def service(tmp_path):
    server = serve(tmp_path / "ws", port=0, jobs=2, max_queue=8)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    server.scheduler.close()
    thread.join(timeout=10)


@pytest.fixture
def client(service):
    return FlowServiceClient(service.url, timeout=30.0)


class TestFlowEndpoints:
    def test_submit_poll_fetch(self, client):
        view = client.submit(SOLO)
        assert view["status"] in ("queued", "running")
        assert view["id"].startswith("job-")
        done = client.wait(view["id"], timeout=120)
        assert done["status"] == "done"
        assert done["source"] == "computed"
        assert [s["status"] for s in done["stages"]] == ["computed"] * 3
        payload = client.result(done["id"])
        assert payload["kind"] == "flow-response"
        assert payload["guarantees"]["gradient"]
        # the status view stays slim; /result delivers the document
        assert "result" not in client.job(view["id"])

    def test_second_post_served_from_artifacts(self, client):
        first = client.submit_and_wait(SOLO, timeout=120)
        second = client.submit(SOLO)
        assert second["status"] == "done"
        assert second["source"] == "artifacts"
        # an artifact hit carries the document in the submit response
        # (no follow-up round trip, no eviction race)
        assert second["result"] == client.result(first["id"])
        assert client.result_text(first["id"]) == \
            client.result_text(second["id"])
        counters = client.health()["counters"]
        assert counters["computed"] == 1
        assert counters["artifact_hits"] == 1

    def test_pending_result_answers_202(self, client, service,
                                        monkeypatch):
        from repro.service.scheduler import FlowScheduler

        release = threading.Event()
        original = FlowScheduler._compute

        def blocked(self, job):
            assert release.wait(timeout=60)
            return original(self, job)

        monkeypatch.setattr(FlowScheduler, "_compute", blocked)
        view = client.submit(SOLO)
        with pytest.raises(ServiceClientError) as outcome:
            client.result_text(view["id"])
        assert outcome.value.status == 202
        release.set()
        assert client.wait(view["id"], timeout=120)["status"] == "done"

    def test_failed_flow_surfaces_the_error(self, client):
        bad = dict(SOLO, name="bad", mapping={"fixed": {"VLD": "tile7"}})
        with pytest.raises(ServiceClientError, match="failed"):
            client.submit_and_wait(bad, timeout=120)

    def test_malformed_spec_answers_400(self, client):
        with pytest.raises(ServiceClientError) as outcome:
            client.submit({"nonsense": True})
        assert outcome.value.status == 400

    def test_nonpositive_constraint_answers_400(self, client):
        negative = dict(SOLO, mapping={"constraint": "-1/5"})
        with pytest.raises(ServiceClientError) as outcome:
            client.submit(negative)
        assert outcome.value.status == 400
        assert "constraint must be > 0" in str(outcome.value)

    @pytest.mark.parametrize("section", [
        {"architecture": {"tiles": 0}}, {"app": {"quality": 0}},
    ])
    def test_malformed_flow_values_answer_400(self, client, section):
        """Rejected at parse time, not accepted and then failed (or, for
        quality 0, silently run at the default quality)."""
        with pytest.raises(ServiceClientError) as outcome:
            client.submit(dict(SOLO, **section))
        assert outcome.value.status == 400

    def test_unknown_job_answers_404(self, client):
        with pytest.raises(ServiceClientError) as outcome:
            client.job("job-999999")
        assert outcome.value.status == 404

    def test_eviction_between_lookup_and_result_answers_404(
        self, client, service, monkeypatch
    ):
        """Regression: a done job evicted from the bounded history
        between the handler's status lookup and its result fetch must
        answer 404, not abort the connection."""
        from repro.service.scheduler import FlowScheduler, UnknownJobError

        view = client.submit_and_wait(SOLO, timeout=120)

        def evicted(self, job_id):
            raise UnknownJobError(f"unknown job {job_id!r}")

        monkeypatch.setattr(FlowScheduler, "result_text", evicted)
        with pytest.raises(ServiceClientError) as outcome:
            client.result_text(view["id"])
        assert outcome.value.status == 404


class TestArtifactEndpoint:
    def test_serves_exact_workspace_bytes(self, client, service):
        done = client.submit_and_wait(SOLO, timeout=120)
        store = service.scheduler.store
        for kind in store.kinds():
            for key in store.keys(kind):
                text = client.artifact_text(kind, key)
                assert text == store.path_for(kind, key).read_text(
                    encoding="utf-8"
                )
        # the response document itself is addressable as an artifact
        assert client.artifact_text(
            "flow-response", done["request_key"]
        ) == client.result_text(done["id"])

    def test_missing_artifact_answers_404(self, client):
        with pytest.raises(ServiceClientError) as outcome:
            client.artifact("mapping-result", "0" * 64)
        assert outcome.value.status == 404

    def test_unsafe_component_answers_400(self, client):
        with pytest.raises(ServiceClientError) as outcome:
            client.artifact("mapping-result", "..")
        assert outcome.value.status == 400


class TestServiceMeta:
    def test_healthz_reports_shape(self, client, service):
        health = client.health()
        assert health["status"] == "ok"
        assert health["worker_slots"] == 2
        assert health["max_queue"] == 8
        assert health["queue_depth"] == 0
        assert set(health["counters"]) == {
            "submitted", "coalesced", "artifact_hits", "computed",
            "failed",
        }
        assert set(health["engine"]) == {"analyses"}
        assert set(health["sim"]) == {
            "instants", "run_instants", "channel_firings",
        }

    def test_unknown_routes_answer_404(self, client):
        for method, path in (
            ("GET", "/v2/flows/x"),
            ("GET", "/v1/nothing"),
            ("POST", "/v1/artifacts/a/b"),
        ):
            with pytest.raises(ServiceClientError) as outcome:
                client._json(method, path, body={} if method == "POST"
                             else None)
            assert outcome.value.status == 404

    @pytest.mark.parametrize("method", ("PUT", "PATCH", "DELETE"))
    @pytest.mark.parametrize("path", ("/v1/flows", "/v1/healthz"))
    def test_unsupported_methods_answer_json_405(self, service, client,
                                                 method, path):
        """Not http.server's HTML 501 page: a JSON 405 naming the
        methods the API does serve."""
        import http.client

        host, port = service.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request(method, path, body=b'{"x": 1}')
            response = connection.getresponse()
            assert response.status == 405
            assert response.getheader("Allow") == "GET, POST"
            assert response.getheader("Content-Type").startswith(
                "application/json"
            )
            assert response.getheader("Connection") == "close"
            document = json.loads(response.read())
            assert document["status_code"] == 405
            assert method in document["error"]
        finally:
            connection.close()
        assert client.health()["status"] == "ok"

    @pytest.mark.parametrize("method", ("HEAD", "OPTIONS", "BREW"))
    def test_methods_without_a_handler_answer_json_405(self, service,
                                                       client, method):
        """Every method the API does not serve, not only the ones it
        names; the 405 to HEAD carries its headers and no body."""
        import http.client

        host, port = service.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request(method, "/v1/healthz")
            response = connection.getresponse()
            assert response.status == 405
            assert response.getheader("Allow") == "GET, POST"
            assert response.getheader("Content-Type").startswith(
                "application/json"
            )
            body = response.read()
            if method == "HEAD":
                assert body == b""
                assert int(response.getheader("Content-Length")) > 0
            else:
                document = json.loads(body)
                assert document["status_code"] == 405
                assert method in document["error"]
        finally:
            connection.close()
        assert client.health()["status"] == "ok"

    def test_client_surfaces_a_405_with_its_status(self, client):
        with pytest.raises(ServiceClientError,
                           match="DELETE /v1/flows -> HTTP 405: method "
                                 "DELETE not allowed") as outcome:
            client._json("DELETE", "/v1/flows")
        assert outcome.value.status == 405

    def test_unreachable_service_fails_cleanly(self):
        client = FlowServiceClient("http://127.0.0.1:9", timeout=2.0)
        with pytest.raises(ServiceClientError, match="cannot reach"):
            client.health()

    def test_rejected_post_does_not_poison_keepalive(self, service):
        """A POST whose body the server never reads must not leave the
        body bytes on a reused connection to be parsed as the next
        request (regression: unknown-route POSTs poisoned HTTP/1.1
        keep-alive)."""
        import http.client

        host, port = service.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request(
                "POST", "/v1/nothing", body=b'{"x": 1}',
                headers={"Content-Type": "application/json"},
            )
            first = connection.getresponse()
            assert first.status == 404
            first.read()
            # the same connection object: reconnects if the server
            # closed it, reuses it otherwise -- either way the next
            # request must parse cleanly
            connection.request("GET", "/v1/healthz")
            second = connection.getresponse()
            assert second.status == 200
            assert json.loads(second.read())["status"] == "ok"
        finally:
            connection.close()

    @pytest.mark.parametrize("path", (
        "/v1/flows",
        "/v1/platform/apps",
        "/v1/platform/apps/app-000001/depart",
    ))
    def test_malformed_content_length_answers_400(self, service, path):
        import socket

        host, port = service.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
                "Content-Length: abc\r\n\r\n".encode("ascii")
            )
            reply = b""
            while chunk := sock.recv(4096):  # the server closes
                reply += chunk
        head, _, body = reply.partition(b"\r\n\r\n")
        lines = head.decode("ascii").split("\r\n")
        assert lines[0].split()[1] == "400"
        assert "Connection: close" in lines[1:]
        assert "invalid Content-Length" in json.loads(body)["error"]

    @pytest.mark.parametrize("path", (
        "/v1/flows",
        "/v1/platform/apps",
        "/v1/platform/apps/app-000001/depart",
    ))
    def test_deeply_nested_body_answers_400(self, service, client, path,
                                            capfd):
        """JSON nested deeper than the parser's stack (well under the
        body limit) is a malformed body, not a dropped connection."""
        import http.client

        host, port = service.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        try:
            connection.request(
                "POST", path, body=b"[" * 200_000,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            assert response.status == 400
            assert response.getheader("Connection") == "close"
            error = json.loads(response.read())["error"]
            assert error.startswith("invalid JSON request body")
        finally:
            connection.close()
        assert client.health()["status"] == "ok"
        assert "Traceback" not in capfd.readouterr().err

    def test_stalled_body_is_disconnected(self, service, monkeypatch,
                                          capfd):
        """A client that declares a body and stops sending it is
        dropped after the handler's socket timeout, quietly."""
        import socket

        from repro.service.http import FlowRequestHandler

        # the handler's own timeout is finite (http.server's is None)
        assert FlowRequestHandler.timeout is not None
        assert FlowRequestHandler.timeout > 0
        monkeypatch.setattr(FlowRequestHandler, "timeout", 0.5)
        host, port = service.server_address[:2]
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.sendall(
                f"POST /v1/flows HTTP/1.1\r\nHost: {host}\r\n"
                "Content-Type: application/json\r\n"
                "Content-Length: 100\r\n\r\n{\"name\": 1".encode("ascii")
            )
            assert sock.recv(4096) == b""  # closed, no response
        assert "Traceback" not in capfd.readouterr().err

    def test_keepalive_responses_do_not_stall(self, service):
        """Header and body writes must not wait on the client's delayed
        ACK (Nagle): 20 sequential requests on one connection take a
        few milliseconds, not 20 x ~40 ms."""
        import http.client
        import time

        host, port = service.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=10)
        try:
            connection.request("GET", "/v1/healthz")
            connection.getresponse().read()
            sock = connection.sock
            start = time.perf_counter()
            for _ in range(20):
                connection.request("GET", "/v1/healthz")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
            elapsed = time.perf_counter() - start
            assert connection.sock is sock  # one connection throughout
        finally:
            connection.close()
        assert elapsed < 0.4, f"20 keep-alive GETs took {elapsed:.3f} s"

    def test_bind_failure_reports_a_clean_cli_error(self, service,
                                                    tmp_path, capsys):
        from repro.cli import main

        host, port = service.server_address[:2]
        code = main([
            "serve", "--workspace", str(tmp_path / "ws2"),
            "--host", host, "--port", str(port),
        ])
        assert code == 1
        assert "cannot bind" in capsys.readouterr().err


@pytest.mark.parametrize("backend", ("thread", "process"))
def test_concurrent_post_burst_is_answered_and_coalesced(tmp_path,
                                                         backend):
    """64 POSTs released at once by a barrier all get a job view (the
    stdlib listen backlog of 5 reset some of them), duplicates of an
    in-flight document coalesce, and each document has one response."""
    from repro.scenarios import generate_scenarios, scenario_flow_spec

    documents = [
        scenario_flow_spec(scenario).to_document()
        for scenario in generate_scenarios("mixed", 2, 11, actors=16)
    ]
    burst = 64
    server = serve(tmp_path / "ws", port=0, jobs=2, backend=backend)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = FlowServiceClient(server.url, timeout=60.0)
        barrier = threading.Barrier(burst)
        views, errors = [None] * burst, []

        def post(index):
            barrier.wait()
            try:
                views[index] = client.submit(documents[index % 2])
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(f"POST {index}: {error!r}")

        posters = [
            threading.Thread(target=post, args=(index,))
            for index in range(burst)
        ]
        for poster in posters:
            poster.start()
        for poster in posters:
            poster.join(timeout=120)
        assert errors == []
        assert all(view and view["id"].startswith("job-")
                   for view in views)
        for job_id in {view["id"] for view in views}:
            assert client.wait(job_id, timeout=300)["status"] == "done"
        counters = client.health()["counters"]
        assert counters["submitted"] == burst
        assert counters["failed"] == 0
        assert counters["coalesced"] >= 1
        texts = {}
        for index, view in enumerate(views):
            texts.setdefault(index % 2, set()).add(
                client.result_text(view["id"])
            )
        assert [len(texts[0]), len(texts[1])] == [1, 1]
        assert texts[0] != texts[1]
    finally:
        server.shutdown()
        server.server_close()
        server.scheduler.close()
        thread.join(timeout=10)
