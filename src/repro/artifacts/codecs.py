"""Codecs: every public result type <-> its canonical artifact payload.

One codec per domain object, registered with
:func:`repro.artifacts.schema.register`.  Nested objects are encoded as
full (enveloped) payloads, so every sub-document is self-describing and
round-trips through the generic :func:`~repro.artifacts.schema.to_payload`
/ :func:`~repro.artifacts.schema.from_payload` pair on its own.

Most kinds register the class alone and get the *field codec*: the
payload is exactly the dataclass's fields, keyed by field name and
converted by one type-hint-driven rule (``docs/artifacts.md``, "How a
type becomes an artifact").  Renaming such a field is a schema change.
The codecs written out below are the kinds whose payload is *not* just
their fields -- renamed or flattened keys, derived keys, a dropped live
object, a legacy default for a missing key -- and each says which.

Two deliberate losses, both documented in ``docs/artifacts.md``:

* functional models (Python callables on
  :class:`~repro.appmodel.implementation.ActorImplementation`) are
  recorded by qualified name for provenance but decode to ``None`` --
  an artifact can be mapped and analyzed anywhere, but only the process
  that built the application can simulate it.  The mapping analysis
  never executes them, so fingerprints and mapping results are
  unaffected (see :mod:`repro.flow.fingerprint`).
* transient allocation state (interconnect reservations, live
  simulators) is excluded; decoded architectures come back with a clean
  interconnect, exactly like :meth:`ArchitectureModel.reset_interconnect`
  leaves them.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.appmodel.implementation import ActorImplementation
from repro.appmodel.metrics import ImplementationMetrics, MemoryRequirements
from repro.appmodel.model import ApplicationModel
from repro.arch.area import AreaEstimate
from repro.arch.components import (
    CommunicationAssist,
    Memory,
    NetworkInterface,
    Peripheral,
    ProcessorType,
)
from repro.arch.interconnect import FSLInterconnect
from repro.arch.noc import SDMNoC
from repro.arch.platform import ArchitectureModel
from repro.arch.tile import Tile
from repro.artifacts.schema import (
    decode_fraction,
    encode_fraction,
    from_payload,
    register,
    to_payload,
)
from repro.comm.params import ChannelParameters
from repro.flow.design_flow import FlowResult
from repro.flow.dse import (
    CacheStats,
    CandidatePoint,
    DesignPoint,
    EvaluationOutcome,
    ExplorationResult,
    ParetoFront,
    TileMix,
)
from repro.flow.effort import EffortReport
from repro.flow.usecases import UseCaseMapping
from repro.mamps.project import PlatformProject
from repro.mapping.pipeline import StrategyTuple
from repro.power import EnergyEstimate, PowerEstimate
from repro.mapping.spec import ChannelMapping, Mapping, MappingResult
from repro.sdf.graph import SDFGraph
from repro.sdf.throughput import ThroughputResult
from repro.sim.platform_sim import MeasuredThroughput


def _callable_ref(function: Optional[Any]) -> Optional[str]:
    """Provenance-only identifier of a functional model."""
    if function is None:
        return None
    return getattr(function, "__qualname__", repr(function))


def _maybe(payload: Optional[Dict[str, Any]]) -> Optional[Any]:
    return None if payload is None else from_payload(payload)


# ----------------------------------------------------------------------
# field-codec kinds: the payload is exactly the dataclass's fields
# ----------------------------------------------------------------------
register("architecture", ArchitectureModel)
register("channel-parameters", ChannelParameters)
register("channel-mapping", ChannelMapping)
register("mapping", Mapping)
register("mapping-result", MappingResult)
register("strategy-tuple", StrategyTuple)
register("tile-mix", TileMix)
register("candidate-point", CandidatePoint)
register("area-estimate", AreaEstimate)
register("power-estimate", PowerEstimate)
register("energy-estimate", EnergyEstimate)
register("cache-stats", CacheStats)
register("evaluation-outcome", EvaluationOutcome)
register("exploration-result", ExplorationResult)
register("measured-throughput", MeasuredThroughput)
register("platform-project", PlatformProject)
register("use-case-mapping", UseCaseMapping)
register("effort-report", EffortReport)


# ----------------------------------------------------------------------
# SDF graph
# ----------------------------------------------------------------------
# Flattened: actors and edges are graph-internal records, not fields.
def _encode_graph(graph: SDFGraph) -> Dict[str, Any]:
    return {
        "name": graph.name,
        "actors": [
            {
                "name": a.name,
                "execution_time": a.execution_time,
                "group": a.group,
                "concurrency": a.concurrency,
            }
            for a in graph.actors
        ],
        "edges": [
            {
                "name": e.name,
                "src": e.src,
                "dst": e.dst,
                "production": e.production,
                "consumption": e.consumption,
                "initial_tokens": e.initial_tokens,
                "token_size": e.token_size,
                "implicit": e.implicit,
            }
            for e in graph.edges
        ],
    }


def _decode_graph(payload: Dict[str, Any]) -> SDFGraph:
    graph = SDFGraph(payload["name"])
    for a in payload["actors"]:
        graph.add_actor(
            a["name"],
            execution_time=a["execution_time"],
            group=a.get("group"),
            concurrency=a.get("concurrency"),
        )
    for e in payload["edges"]:
        graph.add_edge(
            e["name"],
            e["src"],
            e["dst"],
            production=e["production"],
            consumption=e["consumption"],
            initial_tokens=e["initial_tokens"],
            token_size=e["token_size"],
            implicit=e["implicit"],
        )
    return graph


register("sdf-graph", SDFGraph, _encode_graph, _decode_graph)


# ----------------------------------------------------------------------
# application model
# ----------------------------------------------------------------------
# Flattened metrics; callables recorded by name, decoded to None.
def _encode_implementation(impl: ActorImplementation) -> Dict[str, Any]:
    return {
        "actor": impl.actor,
        "pe_type": impl.pe_type,
        "wcet": impl.metrics.wcet,
        "instruction_bytes": impl.metrics.memory.instruction_bytes,
        "data_bytes": impl.metrics.memory.data_bytes,
        "argument_order": list(impl.argument_order),
        "name": impl.name,
        "function": _callable_ref(impl.function),
        "init_function": _callable_ref(impl.init_function),
    }


def _decode_implementation(payload: Dict[str, Any]) -> ActorImplementation:
    return ActorImplementation(
        actor=payload["actor"],
        pe_type=payload["pe_type"],
        metrics=ImplementationMetrics(
            wcet=payload["wcet"],
            memory=MemoryRequirements(
                instruction_bytes=payload["instruction_bytes"],
                data_bytes=payload["data_bytes"],
            ),
        ),
        argument_order=list(payload["argument_order"]),
        name=payload["name"],
    )


register(
    "actor-implementation",
    ActorImplementation,
    _encode_implementation,
    _decode_implementation,
)


# Renamed key: ``throughput_constraint`` is stored as ``constraint``.
def _encode_application(app: ApplicationModel) -> Dict[str, Any]:
    return {
        "name": app.name,
        "constraint": encode_fraction(app.throughput_constraint),
        "graph": to_payload(app.graph),
        "implementations": [
            to_payload(impl) for impl in app.implementations
        ],
    }


def _decode_application(payload: Dict[str, Any]) -> ApplicationModel:
    return ApplicationModel(
        graph=from_payload(payload["graph"]),
        implementations=[
            from_payload(p) for p in payload["implementations"]
        ],
        throughput_constraint=decode_fraction(payload["constraint"]),
        name=payload["name"],
    )


register(
    "application", ApplicationModel, _encode_application,
    _decode_application,
)


# ----------------------------------------------------------------------
# architecture model (tiles, TileMix memories, FSL / NoC interconnect)
# ----------------------------------------------------------------------
# Flattened components: memories, NI and peripherals by size / name.
def _encode_tile(tile: Tile) -> Dict[str, Any]:
    processor = None
    if tile.processor is not None:
        processor = {
            "name": tile.processor.name,
            "context_switch_cycles": tile.processor.context_switch_cycles,
        }
    ca = None
    if tile.communication_assist is not None:
        ca = {
            "setup_cycles": tile.communication_assist.setup_cycles,
            "cycles_per_word": tile.communication_assist.cycles_per_word,
        }
    return {
        "name": tile.name,
        "role": tile.role,
        "processor": processor,
        "instruction_bytes": tile.instruction_memory.capacity_bytes,
        "data_bytes": tile.data_memory.capacity_bytes,
        "ni_fifo_depth_words": tile.network_interface.fifo_depth_words,
        "peripherals": [p.name for p in tile.peripherals],
        "communication_assist": ca,
    }


def _decode_tile(payload: Dict[str, Any]) -> Tile:
    processor = payload["processor"]
    ca = payload["communication_assist"]
    return Tile(
        name=payload["name"],
        processor=(
            None
            if processor is None
            else ProcessorType(
                name=processor["name"],
                context_switch_cycles=processor["context_switch_cycles"],
            )
        ),
        instruction_memory=Memory(payload["instruction_bytes"]),
        data_memory=Memory(payload["data_bytes"]),
        network_interface=NetworkInterface(
            fifo_depth_words=payload["ni_fifo_depth_words"]
        ),
        peripherals=tuple(
            Peripheral(name) for name in payload["peripherals"]
        ),
        communication_assist=(
            None
            if ca is None
            else CommunicationAssist(
                setup_cycles=ca["setup_cycles"],
                cycles_per_word=ca["cycles_per_word"],
            )
        ),
        role=payload["role"],
    )


register("tile", Tile, _encode_tile, _decode_tile)


# Not a dataclass: the configuration only, never the link reservations.
def _encode_fsl(fabric: FSLInterconnect) -> Dict[str, Any]:
    return {
        "fifo_depth_words": fabric.fifo_depth_words,
        "latency_cycles": fabric.latency_cycles,
        "max_links_per_tile": fabric.max_links_per_tile,
    }


def _decode_fsl(payload: Dict[str, Any]) -> FSLInterconnect:
    return FSLInterconnect(
        fifo_depth_words=payload["fifo_depth_words"],
        latency_cycles=payload["latency_cycles"],
        max_links_per_tile=payload["max_links_per_tile"],
    )


register("interconnect-fsl", FSLInterconnect, _encode_fsl, _decode_fsl)


# Not a dataclass: the configuration only (``tile_names`` stored as
# ``tiles``), never the wire reservations.
def _encode_noc(fabric: SDMNoC) -> Dict[str, Any]:
    return {
        "tiles": list(fabric.tile_names),
        "wires_per_link": fabric.wires_per_link,
        "default_connection_wires": fabric.default_connection_wires,
        "router_latency": fabric.router_latency,
        "buffer_words_per_hop": fabric.buffer_words_per_hop,
        "flow_control": fabric.flow_control,
    }


def _decode_noc(payload: Dict[str, Any]) -> SDMNoC:
    return SDMNoC(
        payload["tiles"],
        wires_per_link=payload["wires_per_link"],
        default_connection_wires=payload["default_connection_wires"],
        router_latency=payload["router_latency"],
        buffer_words_per_hop=payload["buffer_words_per_hop"],
        flow_control=payload["flow_control"],
    )


register("interconnect-noc", SDMNoC, _encode_noc, _decode_noc)


# ----------------------------------------------------------------------
# analysis and exploration results
# ----------------------------------------------------------------------


# Legacy default: payloads older than the engine have no tier.
def _encode_throughput(result: ThroughputResult) -> Dict[str, Any]:
    return {
        "throughput": encode_fraction(result.throughput),
        "period": result.period,
        "iterations_per_period": result.iterations_per_period,
        "transient_iterations": result.transient_iterations,
        "tier": result.tier,
    }


def _decode_throughput(payload: Dict[str, Any]) -> ThroughputResult:
    # Every analysis before the engine ran the reference simulator.
    return ThroughputResult(
        throughput=decode_fraction(payload["throughput"]),
        period=payload["period"],
        iterations_per_period=payload["iterations_per_period"],
        transient_iterations=payload["transient_iterations"],
        tier=payload.get("tier", "reference"),
    )


register(
    "throughput-result", ThroughputResult, _encode_throughput,
    _decode_throughput,
)




# Derived key (``label``); power/energy omitted, not null, when None.
def _encode_design_point(point: DesignPoint) -> Dict[str, Any]:
    payload = {
        "label": point.label,  # derived; kept for downstream tooling
        "tiles": point.tiles,
        "interconnect": point.interconnect,
        "with_ca": point.with_ca,
        "throughput": encode_fraction(point.throughput),
        "area": to_payload(point.area),
        "constraint_met": point.constraint_met,
        "mix": point.mix,
        "effort": point.effort,
        "strategy": to_payload(point.strategy),
        "candidate": (
            None
            if point.candidate is None
            else to_payload(point.candidate)
        ),
    }
    # Power/energy keys are *omitted* (not null) when estimation was
    # off, so budget-less runs stay byte-identical to historic payloads.
    if point.power is not None:
        payload["power"] = to_payload(point.power)
    if point.energy is not None:
        payload["energy"] = to_payload(point.energy)
    return payload


def _decode_design_point(payload: Dict[str, Any]) -> DesignPoint:
    return DesignPoint(
        tiles=payload["tiles"],
        interconnect=payload["interconnect"],
        with_ca=payload["with_ca"],
        throughput=decode_fraction(payload["throughput"]),
        area=from_payload(payload["area"]),
        constraint_met=payload["constraint_met"],
        mix=payload["mix"],
        effort=payload["effort"],
        strategy=from_payload(payload["strategy"]),
        candidate=_maybe(payload["candidate"]),
        power=_maybe(payload.get("power")),
        energy=_maybe(payload.get("energy")),
    )


register(
    "design-point", DesignPoint, _encode_design_point,
    _decode_design_point,
)


# Not a dataclass: the front is rebuilt by re-adding its points.
def _encode_front(front: ParetoFront) -> Dict[str, Any]:
    return {"points": [to_payload(p) for p in front.points()]}


def _decode_front(payload: Dict[str, Any]) -> ParetoFront:
    front = ParetoFront()
    for p in payload["points"]:
        front.add(from_payload(p))
    return front


register("pareto-front", ParetoFront, _encode_front, _decode_front)


# ----------------------------------------------------------------------
# flow results
# ----------------------------------------------------------------------


# Dropped live object: the simulator is a running process, not data
# (decoded results carry simulator=None).
def _encode_flow_result(result: FlowResult) -> Dict[str, Any]:
    return {
        "mapping_result": to_payload(result.mapping_result),
        "project": to_payload(result.project),
        "measured": (
            None if result.measured is None else to_payload(result.measured)
        ),
        "effort": to_payload(result.effort),
    }


def _decode_flow_result(payload: Dict[str, Any]) -> FlowResult:
    return FlowResult(
        mapping_result=from_payload(payload["mapping_result"]),
        project=from_payload(payload["project"]),
        simulator=None,
        measured=_maybe(payload["measured"]),
        effort=from_payload(payload["effort"]),
    )


register(
    "flow-result", FlowResult, _encode_flow_result, _decode_flow_result
)
