"""The platform simulator.

:class:`PlatformSimulator` takes the application model, the mapping (via its
bound graph) and runs the system functionally:

* each application-actor firing pops its input *values* from one FIFO per
  explicit application channel as it starts, calls the actor's functional
  implementation and pushes the outputs onto the channels' FIFOs; the
  returned cycle count (plus the tile scheduler's dispatch overhead) is
  its duration;
* communication actors (serialization, link traversal) keep their
  model-determined times -- that hardware is data-independent -- and move
  token counts only;
* static-order schedules and all buffer credits are enforced by the
  underlying :class:`~repro.sdf.simulation.SelfTimedSimulator`.

Carrying the values along the application channel rather than through the
serialization chain is exact: firing *k* of an actor always reads the same
values (Kahn determinism), and a consumer starts only after its tokens
arrived, which follows the start of the firing that pushed their values.

The measured throughput is the long-term average of graph iterations per
clock cycle, sampled after a configurable warm-up, exactly matching the
paper's definition (Section 5).
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Deque, Dict, List

from repro.appmodel.implementation import FiringContext
from repro.appmodel.model import ApplicationModel
from repro.arch.platform import ArchitectureModel
from repro.exceptions import DeadlockError, SimulationError
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

        self._impl_of = dict(mapping.implementations)
        self._dispatch: Dict[str, int] = {}
        for actor, tile_name in mapping.actor_binding.items():
            tile = arch.tile(tile_name)
            self._dispatch[actor] = (
                tile.processor.context_switch_cycles if tile.processor else 0
            )

        # The explicit channel behind each bound-graph edge a consumer
        # reads: an inter-tile channel arrives on `<edge>__dst`.
        self._channel_of: Dict[str, str] = {}
        for edge in app.graph.explicit_edges():
            names = bound.comm_names.get(edge.name)
            dst_edge = edge.name if names is None else names.destination_edge
            self._channel_of[dst_edge] = edge.name
        self.reset()

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Fresh platform state: initial token values from init functions."""
        self._fifos: Dict[str, Deque[object]] = {
            edge.name: deque() for edge in self.app.graph.explicit_edges()
        }
        self._states = {a: {} for a in self.bound.app_actors}
        self._firing_cycles = {a: [] for a in self.bound.app_actors}

        # Per-actor firing plans: the channels a firing pops (with their
        # consumption) and pushes (with their production), in edge order.
        # Self-edges and implicit edges carry no values.
        fifos = self._fifos
        self._input_plan = {
            actor: tuple(
                (channel, fifos[channel].popleft, edge.consumption)
                for edge in self.bound.graph.in_edges(actor)
                if (channel := self._channel_of.get(edge.name)) is not None
            )
            for actor in self.bound.app_actors
        }
        self._output_plan = {
            actor: tuple(
                (edge.name, fifos[edge.name].extend, edge.production)
                for edge in self.app.graph.out_edges(actor)
                if edge.name in fifos
            )
            for actor in self.bound.app_actors
        }

        # Initial token values: produced by the init functions (Listing 1),
        # pre-loaded into the destination-side buffers by the generated
        # communication-initialisation code (Section 5.2).
        for actor in self.app.graph:
            impl = self._impl_of[actor.name]
            initial = {}
            if impl.init_function is not None:
                initial = impl.init_function(self._states[actor.name])
            for edge in self.app.graph.out_edges(actor.name):
                if edge.name not in self._fifos or edge.initial_tokens == 0:
                    continue
                provided = initial.get(edge.name)
                if provided is None or len(provided) != edge.initial_tokens:
                    raise SimulationError(
                        f"init function of {actor.name!r} must provide "
                        f"{edge.initial_tokens} value(s) for edge "
                        f"{edge.name!r}"
                    )
                self._fifos[edge.name].extend(provided)

        # The hooks reach this object through a weak proxy: a simulator
        # holding it strongly would make a reference cycle, and a dropped
        # platform would then wait for a full garbage collection.
        this = weakref.proxy(self)
        self._sim = SelfTimedSimulator(
            self.bound.graph,
            processor_of=self.bound.processor_of,
            static_order=self.mapping.static_orders,
            execution_time_of={
                actor: partial(PlatformSimulator._fire, this, actor)
                for actor in self.bound.app_actors
            },
            record_trace=self.record_trace,
        )

    def _fire(self, actor: str, index: int) -> int:
        """Firing ``index`` of an application actor, run as it starts:
        pop its inputs, run the implementation, push its outputs onto the
        application channels; returns the firing's duration."""
        impl = self._impl_of[actor]
        context = FiringContext(
            inputs={
                channel: [pop() for _ in range(consumption)]
                for channel, pop, consumption in self._input_plan[actor]
            },
            state=self._states[actor],
            firing_index=index,
        )
        output = impl.fire(context)
        if output.cycles > impl.wcet:
            raise SimulationError(
                f"firing {index} of {actor!r} took {output.cycles} cycles, "
                f"above its declared WCET of {impl.wcet}; the throughput "
                "guarantee would be unsound"
            )
        for channel, push, production in self._output_plan[actor]:
            produced = output.outputs.get(channel) or ()
            if len(produced) != production:
                raise SimulationError(
                    f"actor {actor!r} produced {len(produced)} token(s) on "
                    f"{channel!r}, expected {production}"
                )
            push(produced)
        self._firing_cycles[actor].append(output.cycles)
        return output.cycles + self._dispatch[actor]

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
        the rate while the pipeline fills.  A target of 0 returns at once
        (the zero warm-up of :meth:`measure_throughput`); a negative one
        raises :class:`~repro.exceptions.SimulationError`.
        """
        if iterations < 0:
            raise SimulationError(
                f"cannot run to {iterations} iterations; the target must "
                "be >= 0"
            )
        sim = self._sim
        try:
            now = sim.run_until(
                {a: self.q[a] * iterations for a in self.bound.app_actors},
                max_steps,
            )
        except DeadlockError:
            raise SimulationError(
                f"platform deadlocked at t={sim.now} after "
                f"{self.completed_iterations()} complete iteration(s) "
                "-- generated system is broken"
            ) from None
        if self.completed_iterations() < iterations:
            raise SimulationError(
                f"platform did not reach {iterations} iterations within "
                f"{max_steps} simulation steps"
            )
        return now

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
        if warmup_iterations < 0:
            raise SimulationError(
                f"warm-up of {warmup_iterations} iterations; it must be >= 0"
            )
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
        """Interconnect traffic so far, in bytes per original channel
        (each firing of a channel's ``d2`` delivers one token)."""
        return TrafficStats(bytes_by_channel={
            edge.name: self._sim.completed_of(names.d2) * edge.token_size
            for edge in self.app.graph.explicit_edges()
            if (names := self.bound.comm_names.get(edge.name)) is not None
        })

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
        return min(
            self._sim.completed_of(a) // self.q[a]
            for a in self.bound.app_actors
        )
