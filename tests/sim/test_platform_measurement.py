"""Pinned platform measurements and the application-channel value path.

The literal values below were recorded when token values still travelled
through each inter-tile channel's serialization chain.  Moving them onto
one FIFO per application channel must not change a single cycle, byte or
value, so every run here must match those recordings exactly.
"""

import hashlib
from fractions import Fraction

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
from repro.flow import DesignFlow
from repro.mamps import synthesize
from repro.mapping import map_application
from repro.mjpeg import (
    build_mjpeg_application,
    encode_sequence,
    synthetic_sequence,
)
from repro.mjpeg.sequences import gradient_sequence
from repro.sdf import SDFGraph

# Fig. 6 settings: 24 measured iterations after 4 warm-up ones.
MEASURE_ITERATIONS = 24
WARMUP_ITERATIONS = 4

MJPEG_TRAFFIC = {
    "fsl": {"idct2cc": 19040, "iqzz2idct": 37224,
            "subHeader1": 232, "subHeader2": 232},
    "noc": {"idct2cc": 19040, "iqzz2idct": 37092,
            "subHeader1": 232, "subHeader2": 232},
}

#: (sequence, interconnect) -> throughput, cycles, final now, per-actor
#: sums of execution_time_records().
PINNED = {
    ("synthetic", "fsl"): (
        Fraction(3, 12371410), 98971280, 115854866,
        {"CC": 1781920, "IDCT": 115816800, "IQZZ": 2974640,
         "Raster": 625408, "VLD": 6986200},
    ),
    ("gradient", "fsl"): (
        Fraction(1, 1059920), 25438080, 29810284,
        {"CC": 1781920, "IDCT": 29673600, "IQZZ": 630480,
         "Raster": 625408, "VLD": 1262956},
    ),
    ("synthetic", "noc"): (
        Fraction(3, 12377710), 99021680, 115913581,
        {"CC": 1781920, "IDCT": 115816800, "IQZZ": 2964300,
         "Raster": 625408, "VLD": 6986200},
    ),
    ("gradient", "noc"): (
        Fraction(1, 1062020), 25488480, 29868999,
        {"CC": 1781920, "IDCT": 29673600, "IQZZ": 628260,
         "Raster": 625408, "VLD": 1262956},
    ),
}


@pytest.fixture(scope="module")
def mjpeg_inputs():
    """The Fig. 6 inputs: 10-block MCUs, gradient at quality 75 and the
    synthetic sequence at quality 98."""
    return {
        "gradient": encode_sequence(
            gradient_sequence(n_frames=2), quality=75, h=4, v=2
        ),
        "synthetic": encode_sequence(
            synthetic_sequence(n_frames=2), quality=98, h=4, v=2
        ),
    }


@pytest.mark.parametrize("sequence,interconnect", sorted(PINNED))
def test_fig6_measurement_is_pinned(mjpeg_inputs, sequence, interconnect):
    app = build_mjpeg_application(mjpeg_inputs[sequence])
    arch = architecture_from_template(5, interconnect)
    result = DesignFlow(app, arch, fixed={"VLD": "tile0"}).run(
        iterations=MEASURE_ITERATIONS, warmup_iterations=WARMUP_ITERATIONS
    )
    throughput, cycles, now, sums = PINNED[sequence, interconnect]
    simulator = result.simulator
    assert result.measured.throughput == throughput
    assert result.measured.cycles == cycles
    assert simulator.traffic().bytes_by_channel == MJPEG_TRAFFIC[interconnect]
    assert {
        actor: sum(c)
        for actor, c in simulator.execution_time_records().items()
    } == sums
    assert simulator.now == now


def _impl(actor, wcet, fn, init=None):
    return ActorImplementation(
        actor=actor, pe_type="microblaze",
        metrics=ImplementationMetrics(
            wcet=wcet, memory=MemoryRequirements(2048, 1024)
        ),
        function=fn, init_function=init,
    )


def _platform(app, tiles=3, interconnect="fsl"):
    arch = architecture_from_template(tiles, interconnect)
    result = map_application(app, arch)
    return arch, result, synthesize(app, arch, result)


@pytest.fixture
def cycle_app():
    """A -> B -> A with two initial tokens (values 7, 11) on the back
    edge; A records every value it reads."""
    g = SDFGraph("cycle")
    g.add_actor("A", execution_time=300)
    g.add_actor("B", execution_time=500)
    g.add_edge("ab", "A", "B", token_size=4)
    g.add_edge("ba", "B", "A", token_size=4, initial_tokens=2)

    def a_fn(ctx):
        value = ctx.single("ba")
        ctx.state.setdefault("seen", []).append(value)
        ctx.state["sum"] = ctx.state.get("sum", 0) + value
        return FiringOutput(outputs={"ab": [value + 1]},
                            cycles=200 + value % 50)

    def b_fn(ctx):
        value = ctx.single("ab")
        ctx.state["sum"] = ctx.state.get("sum", 0) + value
        return FiringOutput(outputs={"ba": [value * 3 % 1009]},
                            cycles=300 + value % 100)

    return ApplicationModel(graph=g, implementations=[
        _impl("A", 300, a_fn),
        _impl("B", 500, b_fn, init=lambda state: {"ba": [7, 11]}),
    ])


@pytest.fixture
def squares_app():
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

    return ApplicationModel(graph=g, implementations=[
        _impl("P", 400, p_fn), _impl("Q", 600, q_fn), _impl("R", 300, r_fn),
    ])


class TestValuePath:
    @pytest.mark.parametrize("interconnect,now", [("fsl", 9106),
                                                  ("noc", 9113)])
    def test_cycle_across_tiles(self, cycle_app, interconnect, now):
        arch = architecture_from_template(2, interconnect)
        result = map_application(
            cycle_app, arch, fixed={"A": "tile0", "B": "tile1"}
        )
        simulator = synthesize(cycle_app, arch, result)
        assert simulator.run_iterations(20) == now
        # The initial values come first, in FIFO order, then B's outputs.
        assert simulator._states["A"]["seen"] == [
            7, 11, 24, 36, 75, 111, 228, 336, 687, 2, 46, 9, 141, 30, 426,
            93, 272, 282, 819, 849, 442,
        ]
        assert simulator._states["A"]["sum"] == 4926
        assert simulator._states["B"]["sum"] == 4504
        assert simulator.traffic().bytes_by_channel == {"ab": 80, "ba": 76}
        assert {
            actor: sum(c)
            for actor, c in simulator.execution_time_records().items()
        } == {"A": 4776, "B": 6804}

    @pytest.mark.parametrize("interconnect,now,firings,digest,busy", [
        ("fsl", 4122, 145,
         "98b03d7c78df41da50a0d4dae85399e5cea5d359a2dcb89a8dde421bc59564f8",
         {"tile0": 3516, "tile1": 3828, "tile2": 2028}),
        ("noc", 5185, 66,
         "c64ea1b7113e2302da9ef1d345d2570216e164eec868f1143a446985398ab7b8",
         {"tile0": 5150, "tile1": 2028}),
    ])
    def test_recorded_trace(self, squares_app, interconnect, now, firings,
                            digest, busy):
        arch = architecture_from_template(3, interconnect)
        result = map_application(squares_app, arch)
        simulator = synthesize(squares_app, arch, result, record_trace=True)
        assert simulator.run_iterations(6) == now
        recorded = [(f.actor, f.start, f.end)
                    for f in simulator.trace.firings]
        assert len(recorded) == firings
        assert hashlib.sha256(
            repr(recorded).encode()
        ).hexdigest() == digest
        report = simulator.utilization_report()
        assert report.window_cycles == now
        assert report.busy_cycles == busy


class TestErrorPaths:
    def test_deadlock_is_reported(self, squares_app):
        arch = architecture_from_template(1)
        result = map_application(squares_app, arch)
        simulator = synthesize(squares_app, arch, result)
        # A broken lookup table: R is scheduled twice per P and Q.
        (tile, order), = simulator.mapping.static_orders.items()
        simulator.mapping.static_orders[tile] = order + ["R"]
        simulator.reset()
        with pytest.raises(
            SimulationError,
            match=r"platform deadlocked at t=\d+ after 1 complete "
                  r"iteration\(s\)",
        ):
            simulator.run_iterations(3)

    def test_step_budget_is_reported(self, squares_app):
        _arch, _result, simulator = _platform(squares_app)
        with pytest.raises(
            SimulationError,
            match="did not reach 50 iterations within 10 simulation steps",
        ):
            simulator.run_iterations(50, max_steps=10)

    def test_negative_duration_is_reported(self, squares_app):
        squares_app.implementations[0].function = lambda ctx: FiringOutput(
            outputs={"pq": [1]}, cycles=-100_000
        )
        _arch, _result, simulator = _platform(squares_app)
        with pytest.raises(SimulationError, match="negative execution time"):
            simulator.run_iterations(2)
