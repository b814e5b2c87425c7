"""``serve-mixed``: a ``repro serve`` process under a closed-loop mix.

Each round starts a fresh server (thread backend, 2 jobs) over a fresh
copy of the set-up workspace, which holds operating-point libraries for
three generated 4-tile FSL applications.  One client, with one
connection at a time, sends its next request only after the previous
one completed (a second client would only measure how the host's two
cores are shared).  The workload seed draws the op sequence:

* about 90 % of ops POST one of 100 generated scenario documents to
  ``/v1/flows``.  A document's first sight computes (a flow session),
  a repeat is served from the stored response artifact.  About a tenth
  of the flow requests compute, so the median falls among artifact
  hits and p99 among computations, away from the boundary between the
  two.
* about 10 % are admit-then-depart pairs on ``/v1/platform``: journaled
  writes that select a stored operating point with zero analyses.

This is the only workload through HTTP, the scheduler, store reads and
writes and the run-time journal.  The client times host-speed
reference slices between requests (:class:`common.HostClock`).
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from common import HostClock, Round, reference_slice, repro_env
from tracing import Tracer

NAME = "serve-mixed"
OP = "request"
#: Generated scenario documents in the flow-request pool.
POOL_SIZE = 100
POOL_SEED = 7
#: Applications with operating-point libraries, and their seed.
PLATFORM_APPS = 3
PLATFORM_SEED = 3
#: Actions per round; a pair action is two ops (admit, depart).
ROUND_ACTIONS = 950
PAIR_SHARE = 0.05
#: Work between two host-speed probes, in seconds.
SEGMENT_S = 0.25
#: Requests to the reference server per probe, and what the probe
#: (those requests and a reference slice) takes on the reference host.
PROBE_REQUESTS = 5
REFERENCE_PROBE_S = 0.0075
#: Poll interval for computing jobs: short, so it does not quantize
#: the latency of computations that take tens of milliseconds.
POLL_SECONDS = 0.005
HERE = Path(__file__).resolve().parent


def prepare() -> None:
    import repro.runtime  # noqa: F401
    import repro.scenarios  # noqa: F401


def setup(work: Path, seed: int) -> Dict[str, Any]:
    """Generate the documents, build the libraries, bring a server up."""
    from repro.artifacts.store import ArtifactStore
    from repro.flow.spec import ArchSpec
    from repro.runtime import build_library
    from repro.scenarios import generate_scenarios, scenario_flow_spec

    pool = [
        json.dumps(scenario_flow_spec(spec).to_document()).encode()
        for spec in generate_scenarios("all", POOL_SIZE, seed=POOL_SEED)
    ]
    arch = ArchSpec(tiles=4, interconnect="fsl")
    platform_specs = [
        scenario_flow_spec(spec, architecture=arch)
        for spec in generate_scenarios(
            "splitjoin", PLATFORM_APPS, seed=PLATFORM_SEED
        )
    ]
    workspace = Path(work) / f"setup-{time.monotonic_ns()}"
    store = ArtifactStore(workspace / "artifacts")
    for spec in platform_specs:
        build_library(spec, store=store)
    server = Server(workspace)
    server.stop()
    return {
        "pool": pool,
        "platform": [json.dumps(spec.to_document()).encode()
                     for spec in platform_specs],
        "template": workspace,
        "work": Path(work),
        "rounds": itertools.count(),
    }


class Server:
    """One ``repro serve`` child process, up to its first healthz."""

    def __init__(self, workspace: Path, trace_out: Optional[Path] = None):
        args = ["serve", "--workspace", str(workspace), "--port", "0",
                "--jobs", "2", "--quiet"]
        if trace_out is None:
            command = [sys.executable, "-m", "repro", *args]
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"),
                       str(trace_out), *args]
        self.trace_out = trace_out
        self.proc = subprocess.Popen(
            command, env=repro_env(), stdout=subprocess.PIPE, text=True
        )
        try:
            banner = self.proc.stdout.readline()
            if not banner.startswith("flow service on http://"):
                raise RuntimeError(f"server did not start: {banner!r}")
            address = banner.split()[3][len("http://"):].rstrip("/")
            self.host, port = address.rsplit(":", 1)
            self.port = int(port)
            Connection(self).get("/v1/healthz")
        except BaseException:
            self.stop()
            raise

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> Optional[Dict[str, Any]]:
        """Interrupt the server, wait for it; returns its trace, if any."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        if self.trace_out is not None and self.trace_out.exists():
            return json.loads(self.trace_out.read_text())
        return None


class ReferenceServer:
    """``reference_server.py`` in a child process: the host-speed probe
    of this workload times requests to it as well as a reference slice,
    because an artifact hit spends more time in loopback connections
    and server threads than in the interpreter."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "reference_server.py")],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            self.port = int(self.proc.stdout.readline())
        except BaseException:
            self.stop()
            raise

    def probe(self) -> float:
        start = time.perf_counter()
        for _ in range(PROBE_REQUESTS):
            conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                              timeout=60)
            try:
                conn.request("GET", "/", headers={"Connection": "close"})
                conn.getresponse().read()
            finally:
                conn.close()
        return time.perf_counter() - start + reference_slice()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            self.proc.wait()
        self.proc.stdout.close()


class Connection:
    """Requests to the server, one connection at a time.

    Each request opens its own connection, as the repository's client
    does.  (On a kept-alive connection every response waits out the
    peer's delayed ACK, because the handler writes the status line and
    headers and the body in separate segments.)
    """

    def __init__(self, server: Server) -> None:
        self.host, self.port = server.host, server.port

    def request(self, method: str, path: str,
                data: Optional[bytes] = None) -> Tuple[int, str]:
        headers = {"Connection": "close"}
        if data is not None:
            headers["Content-Type"] = "application/json"
        conn = http.client.HTTPConnection(self.host, self.port, timeout=120)
        try:
            conn.request(method, path, body=data, headers=headers)
            response = conn.getresponse()
            return response.status, response.read().decode("utf-8")
        finally:
            conn.close()

    def get(self, path: str) -> Dict[str, Any]:
        status, text = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} -> HTTP {status}: {text}")
        return json.loads(text)


def canonical(document: Any) -> str:
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def op_sequence(seed: int) -> List[Tuple[str, int]]:
    """The round's actions, drawn from the workload seed."""
    rng = random.Random(f"serve-mixed:{seed}")
    actions = []
    for _ in range(ROUND_ACTIONS):
        if rng.random() < PAIR_SHARE:
            actions.append(("pair", rng.randrange(PLATFORM_APPS)))
        else:
            actions.append(("flow", rng.randrange(POOL_SIZE)))
    return actions


def artifact_usage(workspace: Path) -> Tuple[int, int]:
    files = [p for p in (workspace / "artifacts").rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


class Client:
    """The closed-loop client: its next request waits for the last."""

    def __init__(self, server: Server, state, out: Round,
                 clock: HostClock) -> None:
        self.conn = Connection(server)
        self.state = state
        self.out = out
        self.clock = clock
        self.firsts: Dict[int, str] = {}

    def record(self, start: float, metric: Optional[str] = None) -> float:
        """An op from work time ``start`` ended now; returns its seconds."""
        self.clock.op(start)
        seconds = self.clock.now() - start
        if metric is not None:
            self.out.sample(metric, seconds * 1e3)
        return seconds

    def flow(self, index: int) -> None:
        start = self.clock.now()
        status, text = self.conn.request(
            "POST", "/v1/flows", self.state["pool"][index]
        )
        if status == 429:
            self.out.counts["service.rejected"] += 1
        if status not in (200, 202):
            self.record(start)
            return self.out.fail(f"POST /v1/flows #{index} -> HTTP {status}")
        view = json.loads(text)
        if view["source"] == "artifacts":
            self.record(start, "service.hit.ms")
            self.out.counts["service.artifact_hits"] += 1
            document = canonical(view["result"])
        else:
            coalesced = view["coalesced"]
            while view["status"] not in ("done", "failed"):
                time.sleep(POLL_SECONDS)
                view = self.conn.get(f"/v1/flows/{view['id']}")
            if view["status"] == "failed":
                self.record(start)
                return self.out.fail(f"flow #{index} failed: {view['error']}")
            status, text = self.conn.request(
                "GET", f"/v1/flows/{view['id']}/result"
            )
            if status != 200:
                self.record(start)
                return self.out.fail(
                    f"result of flow #{index} -> HTTP {status}")
            document = canonical(json.loads(text))
            if coalesced:
                self.record(start)
                self.out.counts["service.coalesced"] += 1
            else:
                seconds = self.record(start, "service.compute.ms")
                self.out.counts["service.computed"] += 1
                stage_seconds = sum(s["seconds"] for s in view["stages"])
                self.out.sample("session.execute.s", stage_seconds)
                self.out.sample("service.queue_wait.ms",
                                (seconds - stage_seconds) * 1e3)
                for stage in view["stages"]:
                    self.out.counts[f"session.stages_{stage['status']}"] += 1
        first = self.firsts.setdefault(index, document)
        if first != document:
            self.out.fail(f"flow #{index}: response differs from its first")

    def pair(self, index: int) -> None:
        start = self.clock.now()
        status, text = self.conn.request(
            "POST", "/v1/platform/apps", self.state["platform"][index]
        )
        self.record(start, "runtime.admit.ms")
        if status != 201:
            return self.out.fail(f"admit #{index} -> HTTP {status}: {text}")
        admission = json.loads(text)
        self.out.counts["runtime.analyses"] += admission["analyses"]
        if admission["analyses"] != 0:
            self.out.fail(f"admit #{index} ran {admission['analyses']} "
                          "analyses; a library admission runs none")
        start = self.clock.now()
        status, text = self.conn.request(
            "POST", f"/v1/platform/apps/{admission['app_id']}/depart",
            b'{"migrate": false}',
        )
        self.record(start, "runtime.depart.ms")
        if status != 200:
            self.out.fail(f"depart {admission['app_id']} -> HTTP {status}")

    def drive(self, actions) -> None:
        """Every action in order, with a host-speed lap about every
        ``SEGMENT_S`` seconds (between requests, while the server idles)."""
        for kind, index in actions:
            getattr(self, kind)(index)
            if self.clock.now() - self.clock.last_lap() >= SEGMENT_S:
                self.clock.lap()


def run_round(state, seed: int, tracer: Optional[Tracer]) -> Round:
    out = Round()
    number = next(state["rounds"])
    workspace = state["work"] / f"round-{number}"
    shutil.copytree(state["template"], workspace)
    trace_out = (
        state["work"] / f"trace-{number}.json" if tracer is not None
        else None
    )
    reference = ReferenceServer()
    try:
        server = Server(workspace, trace_out)
    except BaseException:
        reference.stop()
        raise
    try:
        probe = Connection(server)
        before = probe.get("/v1/healthz")["counters"]
        files, size = artifact_usage(workspace)
        clock = HostClock(probe=reference.probe,
                          reference=REFERENCE_PROBE_S)
        Client(server, state, out, clock).drive(op_sequence(seed))
        out.timed_by(clock)
        after = probe.get("/v1/healthz")["counters"]
        journal = probe.get("/v1/platform").get("journal_length", 0)
        out.rss_mb = server.peak_rss_mb()
    finally:
        out.trace = server.stop()
        reference.stop()
    files_after, size_after = artifact_usage(workspace)
    shutil.rmtree(workspace)
    out.counts["runtime.journal_events"] += journal
    out.counts["store.files_written"] += files_after - files
    out.counts["store.bytes_written"] += size_after - size
    for counter, name in (
        ("computed", "service.computed"),
        ("artifact_hits", "service.artifact_hits"),
        ("coalesced", "service.coalesced"),
    ):
        delta = after[counter] - before[counter]
        if delta != out.counts[name]:
            out.fail(f"healthz {counter} +{delta}, clients counted "
                     f"{out.counts[name]}")
    if after["failed"] != before["failed"]:
        out.fail(f"healthz failed +{after['failed'] - before['failed']}")
    return out
