"""FlowSession: persistable, resumable, batch-servable flow runs.

A :class:`FlowSession` executes a :class:`~repro.flow.spec.FlowSpec`
inside a *workspace* directory.  Every stage -- building each
application model, instantiating the architecture, mapping each
use-case, folding the use-case union -- persists its result as a
canonical artifact (:mod:`repro.artifacts`) keyed by the content hashes
of :mod:`repro.flow.fingerprint`.  On a re-run, any stage whose input
fingerprints are unchanged is *resumed*: the artifact is loaded instead
of recomputed, and the stage record says so.  Nothing in the session is
keyed by wall-clock or process identity, so resume works across
processes and machines sharing a workspace.

Workspace layout::

    <workspace>/
      artifacts/<kind>/<key>.json   canonical artifacts (content-keyed)
      sessions/<spec-name>.json     last session report per scenario
      batch-report.json             last `repro batch` report

:func:`run_batch` executes many specs against one shared workspace,
fanning sessions out over the same deterministic execution backend
(:mod:`repro.flow.backend` -- threads or worker processes) plumbing
the exploration engine uses.  Artifacts are canonical and
content-keyed, so a concurrent batch
writes a byte-identical ``artifacts/`` tree to a sequential one (the
session and batch reports embed wall-clock timings and necessarily
differ), and a second batch over the same specs resumes nearly
everything.

The design-time/run-time split of Weichslgartner et al. (PAPERS.md) is
the template: mapping artifacts are computed once at design time and
consumed later -- here by resumed sessions, shared evaluation caches
(:class:`~repro.artifacts.store.PersistentEvaluationCache`) and batch
reports.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, \
    Union

import repro.artifacts.codecs  # noqa: F401  (registers the codecs)
from repro.artifacts.schema import (
    artifact_digest,
    canonical_json,
    from_payload,
    register,
    to_payload,
)
from repro.artifacts.store import ArtifactStore, atomic_write_text
from repro.exceptions import ReproError
from repro.flow.backend import (
    ExecutionBackend,
    as_backend,
    backend_task,
)
from repro.flow.fingerprint import (
    application_fingerprint,
    architecture_fingerprint,
    evaluation_key,
)
from repro.flow.spec import AppSpec, FlowSpec, load_flow_spec
from repro.flow.usecases import UseCaseMapping, build_use_case_mapping
from repro.mapping.pipeline import MappingEffort, map_application
from repro.mapping.spec import MappingResult

#: Status of a stage that ran its computation.
COMPUTED = "computed"
#: Status of a stage satisfied by an existing artifact.
RESUMED = "resumed"

#: Stage progress observer: called as ``progress("start", stage, None)``
#: when a stage begins and ``progress("finish", stage, record)`` when it
#: completes (``record`` is the finished :class:`StageRecord`, so the
#: observer sees whether the stage computed or resumed and how long it
#: took).  Observers run on the session's thread; exceptions propagate
#: and abort the run.  This is how the flow service reports per-stage
#: status for in-flight jobs.
ProgressCallback = Callable[[str, str, Optional["StageRecord"]], None]


def _filename_safe(name: str) -> str:
    """Spec names come from user documents; flatten anything that could
    escape the workspace (separators, leading dots) before using one as
    a report file name."""
    cleaned = "".join(
        c if c.isalnum() or c in "._-" else "_" for c in name
    )
    return cleaned.lstrip(".") or "scenario"


@dataclass
class StageRecord:
    """One stage of a session: what ran (or resumed), where, how long."""

    stage: str
    kind: str
    key: str
    status: str
    seconds: float
    path: str

    @property
    def resumed(self) -> bool:
        return self.status == RESUMED


@dataclass
class SessionResult:
    """Everything one FlowSession run produced (or resumed)."""

    spec_name: str
    workspace: str
    stages: List[StageRecord] = field(default_factory=list)
    mappings: Dict[str, MappingResult] = field(default_factory=dict)
    use_cases: Optional[UseCaseMapping] = None

    # ------------------------------------------------------------------
    # resume accounting (the counters the acceptance tests assert on)
    # ------------------------------------------------------------------
    @property
    def computed_stages(self) -> Tuple[str, ...]:
        return tuple(s.stage for s in self.stages if not s.resumed)

    @property
    def resumed_stages(self) -> Tuple[str, ...]:
        return tuple(s.stage for s in self.stages if s.resumed)

    def resume_rate(self) -> float:
        if not self.stages:
            return 0.0
        return len(self.resumed_stages) / len(self.stages)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def guarantee_of(self, use_case: str) -> Fraction:
        return self.mappings[use_case].guaranteed_throughput

    def guarantees(self) -> Dict[str, Fraction]:
        return {
            name: result.guaranteed_throughput
            for name, result in self.mappings.items()
        }

    def constraints_met(self) -> bool:
        return all(r.constraint_met for r in self.mappings.values())

    def summary(self) -> str:
        width = max([len(s.stage) for s in self.stages] + [len("stage")])
        lines = [
            f"session {self.spec_name!r} "
            f"({len(self.resumed_stages)}/{len(self.stages)} stage(s) "
            "resumed):"
        ]
        for record in self.stages:
            lines.append(
                f"  {record.stage:<{width}}  {record.status:<8} "
                f"{record.seconds * 1000:8.1f} ms"
            )
        for name, result in sorted(self.mappings.items()):
            met = "" if result.constraint_met else "  (constraint MISSED)"
            lines.append(
                f"  {name}: guaranteed "
                f"{float(result.guaranteed_throughput * 1e6):.4f} "
                f"iterations/Mcycle{met}"
            )
        return "\n".join(lines)


class FlowSession:
    """Runs one FlowSpec inside a workspace, resuming unchanged stages."""

    def __init__(
        self,
        workspace: Union[str, Path],
        spec: Union[FlowSpec, str, Path],
        store: Optional[ArtifactStore] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> None:
        if not isinstance(spec, FlowSpec):
            spec = load_flow_spec(spec)
        self.spec = spec
        self.workspace = Path(workspace)
        self.store = (
            store
            if store is not None
            else ArtifactStore(self.workspace / "artifacts")
        )
        self.progress = progress

    # ------------------------------------------------------------------
    # the run
    # ------------------------------------------------------------------
    def run(self) -> SessionResult:
        """Execute (or resume) every stage; writes the session report."""
        result = SessionResult(
            spec_name=self.spec.name, workspace=str(self.workspace)
        )

        apps = []
        for app_spec in self.spec.apps:
            app = self._stage(
                result,
                stage=f"application:{app_spec.effective_name}",
                kind="application",
                key=self._app_key(app_spec),
                compute=lambda app_spec=app_spec: self.spec.build_app(
                    app_spec
                ),
            )
            apps.append(app)

        arch = self._stage(
            result,
            stage="architecture",
            kind="architecture",
            key=self._arch_key(),
            compute=self.spec.build_architecture,
        )

        effort = MappingEffort.of(self.spec.effort)
        strategy = self.spec.strategies
        arch_fp = architecture_fingerprint(arch)
        mapping_keys: List[str] = []
        for app_spec, app in zip(self.spec.apps, apps):
            constraint = self.spec.constraint_for(app_spec)
            fixed = self.spec.fixed_for(app_spec)
            key = evaluation_key(
                application_fingerprint(app),
                arch_fp,
                constraint,
                fixed,
                effort.cache_token(),
                strategy=strategy.cache_token(),
            )
            mapping_keys.append(key)
            mapping_result = self._stage(
                result,
                stage=f"mapping:{app_spec.effective_name}",
                kind="mapping-result",
                key=key,
                compute=lambda app=app, constraint=constraint,
                fixed=fixed: map_application(
                    app,
                    arch,
                    constraint=constraint,
                    fixed=fixed,
                    effort=effort,
                    pipeline=strategy.build_pipeline(),
                ),
            )
            result.mappings[app_spec.effective_name] = mapping_result

        if self.spec.multi:
            union_key = artifact_digest(
                {
                    "kind": "use-case-union-key",
                    "architecture": arch_fp,
                    "mappings": sorted(mapping_keys),
                }
            )
            result.use_cases = self._stage(
                result,
                stage="use-cases",
                kind="use-case-mapping",
                key=union_key,
                compute=lambda: build_use_case_mapping(
                    arch, dict(result.mappings)
                ),
            )

        self._write_report(result)
        return result

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _stage(
        self,
        result: SessionResult,
        stage: str,
        kind: str,
        key: str,
        compute: Callable[[], Any],
    ) -> Any:
        """Load the stage artifact if present, else compute and persist.

        Computed results are normalized through their own payload, so a
        session always returns exactly what the artifact stores -- a
        computed stage and a resumed stage are indistinguishable to the
        caller (functional models, which artifacts do not carry, are
        dropped either way; sessions are analysis-side by design).
        """
        if self.progress is not None:
            self.progress("start", stage, None)
        start = time.perf_counter()
        path = self.store.path_for(kind, key)
        payload = self.store.get(kind, key)
        if payload is not None:
            status = RESUMED
        else:
            payload = to_payload(compute())
            path = self.store.put(kind, key, payload)
            status = COMPUTED
        obj = from_payload(payload)
        record = StageRecord(
            stage=stage,
            kind=kind,
            key=key,
            status=status,
            seconds=time.perf_counter() - start,
            path=str(path.relative_to(self.workspace)),
        )
        result.stages.append(record)
        if self.progress is not None:
            self.progress("finish", stage, record)
        return obj

    def _app_key(self, app_spec: AppSpec) -> str:
        """Content key of the application-build stage: the app spec."""
        key = {
            "kind": "app-stage-key",
            "sequence": app_spec.sequence,
            "quality": app_spec.quality,
            "frames": app_spec.frames,
            "name": app_spec.effective_name if self.spec.multi
            or app_spec.name else "",
        }
        if app_spec.scenario is not None:
            # a generated workload's build identity is its scenario
            # table; omitted for case-study apps so their stage keys
            # (and resumable workspaces) are unchanged
            key["scenario"] = app_spec.scenario.to_table()
        return artifact_digest(key)

    def _arch_key(self) -> str:
        # asdict covers every ArchSpec field (canonical encoding sorts
        # keys, so the digest matches the hand-rolled original); a new
        # template knob cannot be left out of the stage identity
        return artifact_digest(
            {
                "kind": "arch-stage-key",
                **dataclasses.asdict(self.spec.architecture),
            }
        )

    def _write_report(self, result: SessionResult) -> None:
        directory = self.workspace / "sessions"
        directory.mkdir(parents=True, exist_ok=True)
        target = directory / f"{_filename_safe(self.spec.name)}.json"
        atomic_write_text(
            target, canonical_json(to_payload(result)) + "\n"
        )


def execute_spec(
    spec: Union[FlowSpec, str, Path],
    workspace: Union[str, Path],
    store: Optional[ArtifactStore] = None,
    progress: Optional[ProgressCallback] = None,
) -> SessionResult:
    """Run (or resume) one FlowSpec as a session over ``workspace``.

    The single execution entry point shared by ``repro run
    --workspace``, the batch runner and the flow service scheduler
    (:mod:`repro.service`): parse the spec if needed, run every stage
    against the workspace's :class:`~repro.artifacts.store.ArtifactStore`
    (pass ``store`` to share one instance across callers) and report
    stage-level progress through ``progress``.
    """
    session = FlowSession(workspace, spec, store=store, progress=progress)
    return session.run()


# ----------------------------------------------------------------------
# batch execution
# ----------------------------------------------------------------------
@dataclass
class BatchEntry:
    """Outcome of one spec within a batch."""

    spec: str
    name: str
    ok: bool
    error: Optional[str] = None
    stages_total: int = 0
    stages_resumed: int = 0
    elapsed_seconds: float = 0.0
    guarantees: Dict[str, str] = field(default_factory=dict)
    constraints_met: Optional[bool] = None


@dataclass
class BatchReport:
    """Machine-readable outcome of one ``repro batch`` invocation."""

    entries: List[BatchEntry] = field(default_factory=list)
    jobs: int = 1
    elapsed_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return all(entry.ok for entry in self.entries)

    @property
    def stages_total(self) -> int:
        return sum(entry.stages_total for entry in self.entries)

    @property
    def stages_resumed(self) -> int:
        return sum(entry.stages_resumed for entry in self.entries)

    def resume_rate(self) -> float:
        total = self.stages_total
        return self.stages_resumed / total if total else 0.0

    def as_table(self) -> str:
        width = max([len(e.name) for e in self.entries] + [len("scenario")])
        header = (
            f"{'scenario':<{width}} {'status':>8} {'stages':>7} "
            f"{'resumed':>8} {'elapsed':>9}"
        )
        lines = [header, "-" * len(header)]
        for e in self.entries:
            status = "ok" if e.ok else "FAILED"
            lines.append(
                f"{e.name:<{width}} {status:>8} {e.stages_total:>7} "
                f"{e.stages_resumed:>8} {e.elapsed_seconds:>8.2f}s"
            )
            if e.error:
                lines.append(f"  error: {e.error}")
        lines.append(
            f"batch: {self.stages_resumed}/{self.stages_total} stage(s) "
            f"resumed ({self.resume_rate():.0%}), "
            f"{self.elapsed_seconds:.2f} s with {self.jobs} job(s)"
        )
        return "\n".join(lines)


def _batch_entry(
    item: Union[FlowSpec, str, Path], workspace: Path
) -> BatchEntry:
    """Run one spec of a batch; failures land in the entry."""
    source = item.name if isinstance(item, FlowSpec) else str(item)
    begin = time.perf_counter()
    try:
        outcome = execute_spec(item, workspace)
    except Exception as error:  # noqa: BLE001 - a bad spec must be
        # reported in its entry, never abort the sibling sessions
        detail = str(error) if isinstance(error, ReproError) else \
            f"{type(error).__name__}: {error}"
        return BatchEntry(
            spec=source,
            name=source,
            ok=False,
            error=detail,
            elapsed_seconds=time.perf_counter() - begin,
        )
    return BatchEntry(
        spec=source,
        name=outcome.spec_name,
        ok=True,
        stages_total=len(outcome.stages),
        stages_resumed=len(outcome.resumed_stages),
        elapsed_seconds=time.perf_counter() - begin,
        guarantees={
            name: str(value)
            for name, value in sorted(outcome.guarantees().items())
        },
        constraints_met=outcome.constraints_met(),
    )


@backend_task("flow.batch-entry")
def _batch_entry_task(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One batch spec, on either backend.

    The spec crosses the process boundary as its
    :meth:`~repro.flow.spec.FlowSpec.to_document` document (or as the
    path the caller named); the entry comes back as its canonical
    payload.  Artifacts land in the shared workspace -- idempotent
    content-addressed writes, so concurrent workers need no
    coordination.
    """
    if "spec_path" in payload:
        item: Union[FlowSpec, str] = payload["spec_path"]
    else:
        item = FlowSpec.from_dict(payload["document"])
    entry = _batch_entry(item, Path(payload["workspace"]))
    return to_payload(entry)


def run_batch(
    specs: Sequence[Union[FlowSpec, str, Path]],
    workspace: Union[str, Path],
    jobs: int = 1,
    backend: Union[None, str, ExecutionBackend] = None,
) -> BatchReport:
    """Run many FlowSpec scenarios against one shared workspace.

    Sessions fan out over an execution backend
    (:mod:`repro.flow.backend`; ``jobs == 1`` on the default thread
    backend is strictly serial) as ``flow.batch-entry`` tasks, which
    take specs as documents (or paths) and return entries as canonical
    payloads; ``backend="process"`` runs each session in a worker
    process, so pure-Python analyses scale with cores.  All sessions
    share one workspace; concurrent writers of
    the same content-keyed artifact are safe (atomic rename, identical
    canonical bytes), so the workspace is byte-identical however and
    wherever the batch is scheduled.  A failing spec is reported in
    its entry rather than aborting the batch.  The report is also
    written to ``<workspace>/batch-report.json``.
    """
    if not specs:
        raise ReproError("batch needs at least one flow spec")
    workspace = Path(workspace)
    # create the workspace up front: the report needs a directory even
    # when every spec fails before its session writes anything
    ArtifactStore(workspace / "artifacts")
    start = time.perf_counter()
    payloads = [
        {"document": item.to_document(), "workspace": str(workspace)}
        if isinstance(item, FlowSpec)
        else {"spec_path": str(item), "workspace": str(workspace)}
        for item in specs
    ]

    owned = not isinstance(backend, ExecutionBackend)
    engine = as_backend(backend, jobs)
    try:
        entries = [
            from_payload(payload)
            for payload in engine.run_tasks_ordered(
                "flow.batch-entry", payloads
            )
        ]
    finally:
        if owned:
            engine.close()
    report = BatchReport(
        entries=entries,
        jobs=engine.jobs,
        elapsed_seconds=time.perf_counter() - start,
    )
    atomic_write_text(
        workspace / "batch-report.json",
        canonical_json(to_payload(report)) + "\n",
    )
    return report


# ----------------------------------------------------------------------
# codecs for the session/batch result types
# ----------------------------------------------------------------------
def _encode_stage(record: StageRecord) -> Dict[str, Any]:
    return {
        "stage": record.stage,
        "artifact_kind": record.kind,  # "kind" is the envelope's key
        "key": record.key,
        "status": record.status,
        "seconds": record.seconds,
        "path": record.path,
    }


def _decode_stage(payload: Dict[str, Any]) -> StageRecord:
    return StageRecord(
        stage=payload["stage"],
        kind=payload["artifact_kind"],
        key=payload["key"],
        status=payload["status"],
        seconds=payload["seconds"],
        path=payload["path"],
    )


register("stage-record", StageRecord, _encode_stage, _decode_stage)
register("session-result", SessionResult)
register("batch-entry", BatchEntry)


# Derived keys: the report's totals and resume rate, for readers of
# ``batch-report.json``.
def _encode_batch(report: BatchReport) -> Dict[str, Any]:
    return {
        "entries": [to_payload(e) for e in report.entries],
        "jobs": report.jobs,
        "elapsed_seconds": report.elapsed_seconds,
        "ok": report.ok,
        "stages_total": report.stages_total,
        "stages_resumed": report.stages_resumed,
        "resume_rate": report.resume_rate(),
    }


def _decode_batch(payload: Dict[str, Any]) -> BatchReport:
    return BatchReport(
        entries=[from_payload(p) for p in payload["entries"]],
        jobs=payload["jobs"],
        elapsed_seconds=payload["elapsed_seconds"],
    )


register("batch-report", BatchReport, _encode_batch, _decode_batch)
