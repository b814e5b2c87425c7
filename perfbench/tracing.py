"""Per-layer tracing of the flow, installed from outside ``src/``.

The benchmark times each layer by wrapping calls into its public
functions and strategy methods: :func:`install` replaces them with
span-recording wrappers and returns a :class:`Patches` whose
``restore()`` puts the originals back.  A span records a call count,
busy time and self time (its duration minus the time its child spans
cover); counts that the layers return (analysis tiers, simulated
cycles, cache hits, deadlock retries) are recorded at the same
boundaries.  Spans nest per thread, so the flow service's worker
threads each keep their own stack.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import threading
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Span names grouped into the layers the print-out reports; a span
#: not listed here is reported under its own name.
LAYERS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("repro.flow.dse", ("dse.evaluate", "dse.cache_get")),
    ("repro.mapping", (
        "mapping.run", "mapping.bind", "mapping.route", "mapping.buffer",
        "mapping.bound_graph", "mapping.schedule",
    )),
    ("repro.sdf", (
        "engine.setup", "engine.analyze", "sdf.repetition_vector",
        "sdf.deadlock",
    )),
    ("repro.power", ("power.estimate",)),
    ("repro.mamps", ("mamps.generate", "mamps.synthesize")),
    ("repro.sim", ("sim.measure",)),
    ("repro.flow.session", ("session.execute",)),
    ("repro.artifacts", ("store.read", "store.write")),
    ("repro.service", ("service.submit",)),
    ("repro.runtime", ("runtime.admit", "runtime.depart")),
)


class Tracer:
    """Span statistics and counters, shared by every thread."""

    def __init__(self) -> None:
        #: span name -> [calls, busy seconds, self seconds]
        self.spans: Dict[str, List[float]] = {}
        self.counts: Counter = Counter()
        #: The time source; a :class:`common.HostClock` leaves its
        #: reference slices out of the spans they interrupt.
        self.clock: Callable[[], float] = time.perf_counter
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[List[Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def parent(self) -> Optional[str]:
        """Name of the span enclosing the current one, if any."""
        stack = self._stack()
        return stack[-2][0] if len(stack) > 1 else None

    def enter(self, name: str) -> List[Any]:
        frame = [name, self.clock(), 0.0]
        self._stack().append(frame)
        return frame

    def leave(self, frame: List[Any]) -> None:
        duration = self.clock() - frame[1]
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][2] += duration
        with self._lock:
            entry = self.spans.setdefault(frame[0], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - frame[2]

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "spans": {k: list(v) for k, v in self.spans.items()},
                "counts": dict(self.counts),
            }


def merge(snapshots: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Sum several :meth:`Tracer.snapshot` results."""
    spans: Dict[str, List[float]] = {}
    counts: Counter = Counter()
    for snap in snapshots:
        for name, values in snap["spans"].items():
            entry = spans.setdefault(name, [0, 0.0, 0.0])
            for i, value in enumerate(values):
                entry[i] += value
        counts.update(snap["counts"])
    return {"spans": spans, "counts": dict(counts)}


def layer_of(span: str) -> str:
    for layer, names in LAYERS:
        if span in names:
            return layer
    return span


class Patches:
    """Attribute replacements that :meth:`restore` undoes in reverse."""

    _MISSING = object()

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, attr: str, value: Any) -> None:
        previous = vars(owner).get(attr, self._MISSING)
        self._undo.append((owner, attr, previous))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, previous = self._undo.pop()
            if previous is self._MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)


def traced(
    tracer: Tracer,
    name: str,
    fn: Callable,
    on_result: Optional[Callable[[Tracer, Any], None]] = None,
    on_error: Optional[Callable[[Tracer, BaseException], None]] = None,
) -> Callable:
    """``fn`` wrapped in a span called ``name``."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as error:
            if on_error is not None:
                on_error(tracer, error)
            tracer.leave(frame)
            raise
        tracer.leave(frame)
        if on_result is not None:
            on_result(tracer, result)
        return result

    return wrapper


def import_all_repro_modules() -> None:
    """Import every ``repro`` module, so that each name bound by a
    ``from ... import`` exists before :func:`patch_everywhere` looks."""
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if not info.name.endswith(".__main__"):  # it runs the CLI
            importlib.import_module(info.name)


def patch_everywhere(patches: Patches, original: Callable, wrapper) -> None:
    """Rebind every module-level name in ``repro`` bound to ``original``."""
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                patches.set(module, attr, wrapper)


def install(tracer: Tracer) -> Patches:
    """Wrap every traced layer boundary; returns the undo record."""
    import_all_repro_modules()
    from repro.artifacts.store import ArtifactStore
    from repro.exceptions import DeadlockError
    from repro.flow import dse, session
    from repro.mamps import generator
    from repro.mapping import bound_graph, pipeline
    from repro.power import estimate
    from repro.runtime.manager import PlatformManager
    from repro.service.scheduler import FlowScheduler
    from repro.sdf import deadlock, engine, repetition
    from repro.sim.platform_sim import PlatformSimulator

    patches = Patches()

    def method(cls, attr, name, **hooks):
        patches.set(cls, attr, traced(tracer, name, getattr(cls, attr),
                                      **hooks))

    def function(original, name, **hooks):
        patch_everywhere(patches, original,
                         traced(tracer, name, original, **hooks))

    def count_tier(t, result):
        t.count("engine.analyze.calls")
        t.count(f"engine.tier.{result.tier}")

    def count_retry(t, error):
        if isinstance(error, DeadlockError) and t.parent() == "mapping.run":
            t.count("mapping.deadlock_retries")

    def count_grow(t, result):
        t.count("mapping.buffer.rounds")

    def count_hit(t, result):
        if result is not None:
            t.count("dse.cache_hits")

    def count_cycles(t, result):
        t.count("sim.simulated_cycles", result.cycles)

    # repro.flow.dse
    method(dse.Evaluator, "evaluate", "dse.evaluate")
    method(dse.EvaluationCache, "get", "dse.cache_get", on_result=count_hit)
    # repro.mapping: the pipeline and its four strategy stages
    method(pipeline.MappingPipeline, "run", "mapping.run")
    for kind, attr, name, hooks in (
        ("binding", "bind", "mapping.bind", {}),
        ("routing", "route", "mapping.route", {}),
        ("buffer", "allocate", "mapping.buffer", {}),
        ("buffer", "grow", "mapping.buffer", {"on_result": count_grow}),
        ("scheduling", "build", "mapping.schedule",
         {"on_error": count_retry}),
    ):
        for strategy in pipeline.registered(kind):
            method(type(pipeline.resolve(kind, strategy)), attr, name,
                   **hooks)
    function(bound_graph.build_bound_graph, "mapping.bound_graph")
    function(bound_graph.apply_buffer_capacities, "mapping.bound_graph")
    # repro.sdf: the throughput engine and the analyses it leans on
    method(engine.ThroughputEngine, "__init__", "engine.setup")
    method(engine.ThroughputEngine, "analyze", "engine.analyze",
           on_result=count_tier, on_error=count_retry)
    function(repetition.repetition_vector, "sdf.repetition_vector")
    function(deadlock.deadlock_report, "sdf.deadlock")
    function(deadlock.is_deadlock_free, "sdf.deadlock")
    # repro.power
    function(estimate.platform_power, "power.estimate")
    function(estimate.application_energy, "power.estimate")
    # repro.mamps and repro.sim
    function(generator.generate_platform, "mamps.generate")
    function(generator.synthesize, "mamps.synthesize")
    method(PlatformSimulator, "measure_throughput", "sim.measure",
           on_result=count_cycles)
    # repro.flow.session, repro.artifacts, repro.service, repro.runtime
    function(session.execute_spec, "session.execute")
    method(ArtifactStore, "get", "store.read")
    method(ArtifactStore, "get_text", "store.read")
    method(ArtifactStore, "put", "store.write")
    method(FlowScheduler, "submit", "service.submit")
    method(PlatformManager, "admit", "runtime.admit")
    method(PlatformManager, "depart", "runtime.depart")
    return patches
