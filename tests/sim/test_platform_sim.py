"""Tests for the platform simulator (the FPGA stand-in).

The central property, tested here on a functional pipeline and reproduced
at scale by the Fig. 6 benchmarks: measured throughput is always at least
the analyzed worst-case guarantee, and approaches it when actors run at
their WCET.
"""

import pytest

from repro.appmodel import (
    ActorImplementation,
    ApplicationModel,
    FiringOutput,
    ImplementationMetrics,
    MemoryRequirements,
)
from repro.arch import architecture_from_template
from repro.exceptions import SimulationError
from repro.mamps import synthesize
from repro.mapping import map_application
from repro.sdf import SDFGraph

@pytest.fixture
def functional_app():
    """Same pipeline as tests/mamps/conftest.py, built locally."""
    g = SDFGraph("squares")
    g.add_actor("P", execution_time=400)
    g.add_actor("Q", execution_time=600)
    g.add_actor("R", execution_time=300)
    g.add_edge("pq", "P", "Q", token_size=4)
    g.add_edge("qr", "Q", "R", token_size=4)

    def p_fn(ctx):
        value = ctx.firing_index % 17
        return FiringOutput(outputs={"pq": [value]}, cycles=250 + value * 8)

    def q_fn(ctx):
        value = ctx.single("pq")
        return FiringOutput(outputs={"qr": [value * value]},
                            cycles=450 + (value % 5) * 10)

    def r_fn(ctx):
        ctx.state["sum"] = ctx.state.get("sum", 0) + ctx.single("qr")
        return FiringOutput(outputs={}, cycles=280)

    def impl(actor, wcet, fn):
        return ActorImplementation(
            actor=actor, pe_type="microblaze",
            metrics=ImplementationMetrics(
                wcet=wcet,
                memory=MemoryRequirements(2048, 1024),
            ),
            function=fn,
        )

    return ApplicationModel(
        graph=g,
        implementations=[
            impl("P", 400, p_fn), impl("Q", 600, q_fn), impl("R", 300, r_fn)
        ],
    )


def build_platform(app, tiles=3, interconnect="fsl", **map_kwargs):
    arch = architecture_from_template(tiles, interconnect)
    result = map_application(app, arch, **map_kwargs)
    simulator = synthesize(app, arch, result)
    return arch, result, simulator


class TestMeasurement:
    def test_measured_at_least_guaranteed(self, functional_app):
        _, result, simulator = build_platform(functional_app)
        measured = simulator.measure_throughput(iterations=40)
        assert measured.throughput >= result.guaranteed_throughput

    def test_measured_close_when_running_at_wcet(self, functional_app):
        """Force every firing to its WCET: measurement should sit within a
        few percent of the guarantee (the paper reports <1% margin for
        synthetic data; the residue is transient effects)."""
        for impl in functional_app.implementations:
            wcet = impl.wcet
            original = impl.function

            def at_wcet(ctx, original=original, wcet=wcet):
                output = original(ctx)
                return FiringOutput(outputs=output.outputs, cycles=wcet)

            impl.function = at_wcet
        _, result, simulator = build_platform(functional_app)
        measured = simulator.measure_throughput(iterations=40)
        assert measured.throughput >= result.guaranteed_throughput
        margin = float(
            measured.throughput / result.guaranteed_throughput - 1
        )
        assert margin < 0.05

    def test_noc_platform_runs(self, functional_app):
        _, result, simulator = build_platform(
            functional_app, tiles=3, interconnect="noc"
        )
        measured = simulator.measure_throughput(iterations=20)
        assert measured.throughput >= result.guaranteed_throughput

    def test_single_tile_platform_runs(self, functional_app):
        _, result, simulator = build_platform(functional_app, tiles=1)
        measured = simulator.measure_throughput(iterations=20)
        assert measured.throughput >= result.guaranteed_throughput

    def test_per_mega_cycle_unit(self, functional_app):
        _, _, simulator = build_platform(functional_app)
        measured = simulator.measure_throughput(iterations=10)
        assert measured.per_mega_cycle() == pytest.approx(
            float(measured.throughput) * 1e6
        )

    def test_warmup_excluded(self, functional_app):
        _, _, simulator = build_platform(functional_app)
        measured = simulator.measure_throughput(
            iterations=10, warmup_iterations=3
        )
        assert measured.warmup_iterations == 3
        assert measured.iterations == 10
        assert simulator.completed_iterations() >= 13

    def test_negative_warmup_rejected(self, functional_app):
        """A negative warm-up would measure fewer iterations than it
        reports; nothing runs before the error."""
        _, _, simulator = build_platform(functional_app)
        with pytest.raises(SimulationError, match="warm-up"):
            simulator.measure_throughput(iterations=4, warmup_iterations=-2)
        assert simulator.now == 0

    @pytest.mark.parametrize("iterations", [0, -3])
    def test_fewer_than_one_measured_iteration_rejected(
        self, functional_app, iterations
    ):
        _, _, simulator = build_platform(functional_app)
        with pytest.raises(SimulationError, match="at least one"):
            simulator.measure_throughput(iterations=iterations)

    def test_negative_iteration_target_rejected(self, functional_app):
        _, _, simulator = build_platform(functional_app)
        with pytest.raises(SimulationError, match="must be >= 0"):
            simulator.run_iterations(-2)
        assert simulator.run_iterations(0) == 0


class TestFunctionalCorrectness:
    def test_token_values_computed_correctly(self, functional_app):
        """R accumulates squares of P's outputs, across the interconnect."""
        _, _, simulator = build_platform(functional_app)
        simulator.run_iterations(17)
        state_sum = simulator._states["R"].get("sum")
        fired = len(simulator.execution_time_records()["R"])
        assert fired >= 17
        expected = sum((i % 17) ** 2 for i in range(fired))
        assert state_sum == expected

    def test_execution_time_records(self, functional_app):
        _, _, simulator = build_platform(functional_app)
        simulator.run_iterations(5)
        records = simulator.execution_time_records()
        assert len(records["P"]) >= 5
        assert all(c <= 400 for c in records["P"])
        assert records["P"][0] == 250  # firing 0: value 0

    def test_traffic_accounting(self, functional_app):
        _, result, simulator = build_platform(functional_app)
        simulator.run_iterations(10)
        traffic = simulator.traffic()
        inter = [c.edge for c in result.mapping.inter_tile_channels()]
        for edge in inter:
            assert traffic.bytes_by_channel[edge] > 0
        assert traffic.total_bytes() >= 10 * 4 * len(inter) - 8 * len(inter)

    def test_reset_restarts_cleanly(self, functional_app):
        _, _, simulator = build_platform(functional_app)
        simulator.run_iterations(5)
        simulator.reset()
        assert simulator.now == 0
        simulator.run_iterations(3)
        assert simulator.completed_iterations() >= 3


class TestSoundnessChecks:
    def test_wcet_violation_caught(self, functional_app):
        functional_app.implementations[0].function = lambda ctx: FiringOutput(
            outputs={"pq": [1]}, cycles=1000  # above WCET 400
        )
        _, _, simulator = build_platform(functional_app)
        with pytest.raises(SimulationError, match="WCET"):
            simulator.run_iterations(2)

    def test_wrong_token_count_caught(self, functional_app):
        functional_app.implementations[0].function = lambda ctx: FiringOutput(
            outputs={"pq": [1, 2]}, cycles=100
        )
        _, _, simulator = build_platform(functional_app)
        with pytest.raises(SimulationError, match="produced"):
            simulator.run_iterations(2)

    def test_non_functional_app_rejected(self, functional_app):
        for impl in functional_app.implementations:
            impl.function = None
        arch = architecture_from_template(2)
        result = map_application(functional_app, arch)
        with pytest.raises(SimulationError, match="functional"):
            synthesize(functional_app, arch, result)
