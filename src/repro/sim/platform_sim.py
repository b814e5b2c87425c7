"""The platform simulator.

:class:`PlatformSimulator` takes the application model, the mapping (via its
bound graph) and runs the system functionally:

* token *values* travel along the application's explicit channels (through
  the serialization/deserialization chain of inter-tile channels, which
  preserves FIFO order end to end);
* each application-actor firing calls the actor's functional implementation
  with the consumed values and takes the returned cycle count (plus the
  tile scheduler's dispatch overhead) as its duration;
* communication actors (serialization, link traversal) keep their
  model-determined times -- that hardware is data-independent;
* static-order schedules and all buffer credits are enforced by the
  underlying :class:`~repro.sdf.simulation.SelfTimedSimulator`.

The measured throughput is the long-term average of graph iterations per
clock cycle, sampled after a configurable warm-up, exactly matching the
paper's definition (Section 5).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Deque, Dict, List, Optional, Tuple

from repro.appmodel.implementation import FiringContext, FiringOutput
from repro.appmodel.model import ApplicationModel
from repro.arch.platform import ArchitectureModel
from repro.exceptions import SimulationError
from repro.mapping.bound_graph import BoundGraph
from repro.mapping.spec import Mapping
from repro.sdf.repetition import repetition_vector
from repro.sdf.simulation import SelfTimedSimulator


@dataclass(frozen=True)
class MeasuredThroughput:
    """Outcome of a measurement run.

    ``throughput`` is iterations per cycle over the measurement window
    (after warm-up); ``iterations`` and ``cycles`` describe that window.
    """

    throughput: Fraction
    iterations: int
    cycles: int
    warmup_iterations: int

    def per_mega_cycle(self) -> float:
        """Iterations per 10^6 cycles (Fig. 6's unit)."""
        return float(self.throughput * 1_000_000)


@dataclass
class TrafficStats:
    """Bytes that crossed the interconnect, per original channel name."""

    bytes_by_channel: Dict[str, int]

    def total_bytes(self) -> int:
        return sum(self.bytes_by_channel.values())

    def share_of(self, *channels: str) -> float:
        """Fraction of total traffic carried by the named channels."""
        total = self.total_bytes()
        if total == 0:
            return 0.0
        return sum(self.bytes_by_channel.get(c, 0) for c in channels) / total


class PlatformSimulator:
    """Executes a mapped application functionally, with real timings."""

    def __init__(
        self,
        app: ApplicationModel,
        arch: ArchitectureModel,
        mapping: Mapping,
        bound: BoundGraph,
        record_trace: bool = False,
    ) -> None:
        app.validate()
        if not app.is_functional():
            raise SimulationError(
                f"application {app.name!r} has no functional implementations;"
                " the platform simulator runs real actor code"
            )
        self.app = app
        self.arch = arch
        self.mapping = mapping
        self.bound = bound
        self.record_trace = record_trace
        self.q = repetition_vector(app.graph)
        self.reference = bound.app_actors[0]

        self._impl_of = dict(mapping.implementations)
        self._dispatch: Dict[str, int] = {}
        for actor, tile_name in mapping.actor_binding.items():
            tile = arch.tile(tile_name)
            self._dispatch[actor] = (
                tile.processor.context_switch_cycles if tile.processor else 0
            )

        # Edge-name translation: the consumer of an inter-tile channel reads
        # from `<edge>__dst`, the producer writes to `<edge>__src`.
        self._consume_edge: Dict[str, str] = {}  # bound edge -> original
        self._produce_edge: Dict[str, str] = {}
        self._s1_of_channel: Dict[str, str] = {}  # s1 actor -> original edge
        self._d2_of_channel: Dict[str, str] = {}
        for edge in app.graph.explicit_edges():
            names = bound.comm_names.get(edge.name)
            if names is None:  # intra-tile channel, name unchanged
                self._consume_edge[edge.name] = edge.name
                self._produce_edge[edge.name] = edge.name
            else:
                self._consume_edge[names.destination_edge] = edge.name
                self._produce_edge[names.source_edge] = edge.name
                self._s1_of_channel[names.s1] = edge.name
                self._d2_of_channel[names.d2] = edge.name

        # Direct lookups for the per-firing hooks.
        self._s1_source_edge: Dict[str, str] = {}
        self._d2_dst_edge: Dict[str, str] = {}
        for edge in app.graph.explicit_edges():
            names = bound.comm_names.get(edge.name)
            if names is not None:
                self._s1_source_edge[names.s1] = names.source_edge
                self._d2_dst_edge[names.d2] = names.destination_edge

        self._values: Dict[str, Deque[object]] = {}
        self._in_transit: Dict[str, Deque[object]] = {}
        self._pending_outputs: Dict[str, Deque[Dict[str, List[object]]]] = {}
        self._states: Dict[str, Dict[str, object]] = {}
        self._firing_cycles: Dict[str, List[int]] = {}
        self._tokens_delivered: Dict[str, int] = {}
        self._sim: Optional[SelfTimedSimulator] = None
        self.reset()

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Fresh platform state: initial token values from init functions."""
        self._values = {
            e: deque()
            for e in list(self._consume_edge) + list(self._produce_edge)
        }
        self._in_transit = {
            edge.name: deque() for edge in self.app.graph.explicit_edges()
        }
        self._pending_outputs = {a: deque() for a in self.bound.app_actors}
        self._states = {a: {} for a in self.bound.app_actors}
        self._firing_cycles = {a: [] for a in self.bound.app_actors}
        self._tokens_delivered = {
            e.name: 0 for e in self.app.graph.explicit_edges()
        }

        # Initial token values: produced by the init functions (Listing 1),
        # pre-loaded into the destination-side buffers by the generated
        # communication-initialisation code (Section 5.2).
        by_consumer_edge: Dict[str, List[object]] = {}
        for actor in self.app.graph:
            impl = self._impl_of[actor.name]
            initial = {}
            if impl.init_function is not None:
                initial = impl.init_function(self._states[actor.name])
            for edge in self.app.graph.out_edges(actor.name):
                if edge.is_self_edge or edge.implicit:
                    continue
                if edge.initial_tokens == 0:
                    continue
                provided = initial.get(edge.name)
                if provided is None or len(provided) != edge.initial_tokens:
                    raise SimulationError(
                        f"init function of {actor.name!r} must provide "
                        f"{edge.initial_tokens} value(s) for edge "
                        f"{edge.name!r}"
                    )
                by_consumer_edge[edge.name] = list(provided)
        for bound_edge, original in self._consume_edge.items():
            for value in by_consumer_edge.get(original, []):
                self._values[bound_edge].append(value)

        self._sim = SelfTimedSimulator(
            self.bound.graph,
            processor_of=self.bound.processor_of,
            static_order=self.mapping.static_orders,
            execution_time_of=self._execution_time_of,
            on_finish=self._on_finish,
            record_trace=self.record_trace,
        )

    # ------------------------------------------------------------------
    # value transport hooks
    # ------------------------------------------------------------------
    def _execution_time_of(self, actor: str, index: int) -> int:
        # Channel entry: s1 starts serializing a token -> capture its value.
        if actor in self._s1_of_channel:
            original = self._s1_of_channel[actor]
            bound_edge = self._s1_source_edge[actor]
            self._in_transit[original].append(
                self._values[bound_edge].popleft()
            )
            return self.bound.graph.actor(actor).execution_time

        if actor not in self._pending_outputs:
            # Communication/bookkeeping actor: model-determined time.
            return self.bound.graph.actor(actor).execution_time

        # Application actor: consume values, run the implementation.
        impl = self._impl_of[actor]
        context = FiringContext(
            inputs={},
            state=self._states[actor],
            firing_index=index,
        )
        for edge in self.bound.graph.in_edges(actor):
            original = self._consume_edge.get(edge.name)
            if original is None:
                continue
            context.inputs[original] = [
                self._values[edge.name].popleft()
                for _ in range(edge.consumption)
            ]
        output = impl.fire(context)
        if output.cycles > impl.wcet:
            raise SimulationError(
                f"firing {index} of {actor!r} took {output.cycles} cycles, "
                f"above its declared WCET of {impl.wcet}; the throughput "
                "guarantee would be unsound"
            )
        self._check_output_counts(actor, output)
        self._pending_outputs[actor].append(output.outputs)
        self._firing_cycles[actor].append(output.cycles)
        return output.cycles + self._dispatch[actor]

    def _check_output_counts(self, actor: str, output: FiringOutput) -> None:
        for edge in self.app.graph.out_edges(actor):
            if edge.is_self_edge or edge.implicit:
                continue
            produced = output.outputs.get(edge.name)
            count = 0 if produced is None else len(produced)
            if count != edge.production:
                raise SimulationError(
                    f"actor {actor!r} produced {count} token(s) on "
                    f"{edge.name!r}, expected {edge.production}"
                )

    def _on_finish(self, actor: str, index: int) -> None:
        # Channel exit: d2 deposits a reassembled token at the destination.
        if actor in self._d2_of_channel:
            original = self._d2_of_channel[actor]
            bound_edge = self._d2_dst_edge[actor]
            self._values[bound_edge].append(
                self._in_transit[original].popleft()
            )
            self._tokens_delivered[original] += 1
            return
        outputs = self._pending_outputs.get(actor)
        if outputs is None or not outputs:
            return  # communication actor without values
        produced = outputs.popleft()
        for edge in self.app.graph.out_edges(actor):
            if edge.is_self_edge or edge.implicit:
                continue
            values = produced.get(edge.name, [])
            names = self.bound.comm_names.get(edge.name)
            if names is None:
                self._values[edge.name].extend(values)
            else:
                self._values[names.source_edge].extend(values)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def run_iterations(self, iterations: int,
                       max_steps: int = 5_000_000) -> int:
        """Execute until ``iterations`` *complete* graph iterations have
        finished; returns the finishing time in cycles.

        An iteration counts as complete when every application actor has
        fired its repetition-vector share -- i.e. the pipeline has actually
        delivered the output, the quantity the paper measures on the FPGA
        (MCUs decoded).  Counting a source actor instead would overestimate
        the rate while the pipeline fills.
        """
        sim = self._sim
        for _ in range(max_steps):
            if self.completed_iterations() >= iterations:
                return sim.now
            if not sim.step():
                raise SimulationError(
                    f"platform deadlocked at t={sim.now} after "
                    f"{self.completed_iterations()} complete iteration(s) "
                    "-- generated system is broken"
                )
        raise SimulationError(
            f"platform did not reach {iterations} iterations within "
            f"{max_steps} simulation steps"
        )

    def measure_throughput(
        self, iterations: int = 50, warmup_iterations: int = 5
    ) -> MeasuredThroughput:
        """Measured long-term average throughput (iterations per cycle).

        Runs ``warmup_iterations`` first (start-up effects excluded, per
        the paper's long-term-average definition), then measures the next
        ``iterations``.
        """
        if iterations < 1:
            raise SimulationError("need at least one measured iteration")
        t0 = self.run_iterations(warmup_iterations)
        t1 = self.run_iterations(warmup_iterations + iterations)
        cycles = t1 - t0
        if cycles <= 0:
            raise SimulationError(
                "measurement window is empty; increase iterations"
            )
        return MeasuredThroughput(
            throughput=Fraction(iterations, cycles),
            iterations=iterations,
            cycles=cycles,
            warmup_iterations=warmup_iterations,
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def execution_time_records(self) -> Dict[str, List[int]]:
        """Per-actor list of actual firing cycle counts (dispatch excluded)."""
        return {a: list(c) for a, c in self._firing_cycles.items()}

    def traffic(self) -> TrafficStats:
        """Interconnect traffic so far, in bytes per original channel."""
        bytes_by_channel = {}
        for edge in self.app.graph.explicit_edges():
            names = self.bound.comm_names.get(edge.name)
            if names is None:
                continue
            bytes_by_channel[edge.name] = (
                self._tokens_delivered[edge.name] * edge.token_size
            )
        return TrafficStats(bytes_by_channel=bytes_by_channel)

    def utilization_report(self):
        """Per-resource utilization from the recorded trace (requires
        ``record_trace=True``)."""
        from repro.sim.trace import utilization

        if not self.record_trace:
            raise SimulationError(
                "construct the simulator with record_trace=True to get "
                "utilization reports"
            )
        return utilization(self._sim.trace, self.bound.processor_of)

    @property
    def trace(self):
        """The raw simulation trace (requires ``record_trace=True``)."""
        return self._sim.trace

    @property
    def now(self) -> int:
        return self._sim.now

    def completed_iterations(self) -> int:
        """Complete graph iterations delivered by the whole pipeline."""
        # completed_of is O(1); this runs once per simulation step.
        return min(
            self._sim.completed_of(a) // self.q[a]
            for a in self.bound.app_actors
        )
