"""Tests for latency analysis."""

import pytest

from repro.exceptions import SimulationError
from repro.sdf import SDFGraph
from repro.sdf.buffers import BufferDistribution, add_buffer_edges
from repro.sdf.latency import (
    first_iteration_latency,
    source_to_sink_latency,
)


def chain(times, capacity=4):
    g = SDFGraph("lat_chain")
    previous = None
    for index, t in enumerate(times):
        actor = f"n{index}"
        g.add_actor(actor, execution_time=t)
        if previous is not None:
            g.add_edge(f"e{index - 1}", previous, actor, token_size=4)
        previous = actor
    capacities = {e.name: capacity for e in g.explicit_edges()}
    return add_buffer_edges(g, BufferDistribution(capacities))


class TestFirstIteration:
    def test_chain_is_sum_of_stages(self):
        g = chain([10, 20, 30])
        # Cold start: no pipelining possible inside one iteration.
        assert first_iteration_latency(g) == 60

    def test_parallel_branches_take_the_longer_one(self):
        g = SDFGraph("fork")
        g.add_actor("S", execution_time=5)
        g.add_actor("fast", execution_time=10)
        g.add_actor("slow", execution_time=50)
        g.add_edge("sf", "S", "fast", token_size=4)
        g.add_edge("ss", "S", "slow", token_size=4)
        assert first_iteration_latency(g) == 55

    def test_single_processor_with_static_order(self):
        g = chain([10, 20, 30])
        latency = first_iteration_latency(
            g,
            processor_of={"n0": "t", "n1": "t", "n2": "t"},
            static_order={"t": ["n0", "n1", "n2"]},
        )
        assert latency == 60  # the order runs the chain exactly once

    def test_single_processor_greedy_may_run_ahead(self):
        """Without a static order the greedy processor may interleave
        later-iteration source firings before finishing iteration one --
        the reason the flow always fixes a static order."""
        g = chain([10, 20, 30])
        greedy = first_iteration_latency(
            g, processor_of={"n0": "t", "n1": "t", "n2": "t"}
        )
        assert greedy >= 60

    def test_multirate_iteration(self, figure2_graph):
        # One iteration: A (4), then B twice (3+3 serialized by
        # auto-concurrency), then C (2) once both inputs are ready.
        assert first_iteration_latency(figure2_graph) == 4 + 6 + 2


class TestSourceToSink:
    def test_tight_buffers_add_credit_waiting(self):
        """Capacity 1: the source fires as soon as its credit returns,
        but its token then waits for downstream credits -- per-input
        latency exceeds the bare critical path (hand-traced: 80)."""
        g = chain([10, 20, 30], capacity=1)
        latency = source_to_sink_latency(g, "n0", "n2")
        assert latency == 80

    def test_pipelining_does_not_shrink_per_input_latency(self):
        g = chain([10, 20, 30], capacity=4)
        latency = source_to_sink_latency(g, "n0", "n2")
        # The input still traverses all stages; queueing can only add.
        assert latency >= 60

    def test_slow_bottleneck_adds_queueing(self):
        g = chain([10, 50, 10], capacity=4)
        latency = source_to_sink_latency(g, "n0", "n2")
        # n0 runs ahead and its tokens queue before n1: latency > sum.
        assert latency > 70

    def test_unknown_actor_rejected(self):
        g = chain([10, 20])
        with pytest.raises(SimulationError, match="not in graph"):
            source_to_sink_latency(g, "n0", "zed")

    @pytest.mark.parametrize("iterations, warmup", [(10, -2), (0, 3), (-1, 0)])
    def test_window_out_of_range_rejected(self, iterations, warmup):
        """A negative warm-up would index the trace from its end."""
        g = chain([10, 20])
        with pytest.raises(SimulationError, match="iterations >= 1"):
            source_to_sink_latency(
                g, "n0", "n1", iterations=iterations, warmup=warmup
            )

    def test_multirate_source_sink(self, figure2_graph):
        from repro.sdf.buffers import (
            BufferDistribution,
            add_buffer_edges,
        )

        bounded = add_buffer_edges(
            figure2_graph,
            BufferDistribution({"a2b": 4, "a2c": 2, "b2c": 4}),
        )
        latency = source_to_sink_latency(bounded, "A", "C")
        assert latency >= 4 + 3 + 2  # at least the critical path
