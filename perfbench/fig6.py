"""``fig6-flow``: the paper's Fig. 6 experiment, one pass per round.

``DesignFlow.run`` maps, generates, synthesizes and measures the MJPEG
decoder for the five test-set sequences plus the synthetic one, on the
5-tile template with FSL and with the NoC: 12 full flows per round,
24 measured iterations after 4 warm-up ones.  Platform simulation takes
most of a flow, mapping about a tenth, so a simulator speed-up shows
here and a mapping speed-up barely does.  Inputs are fixed (the case
study); the seed does not change the work.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from common import LAP_S, HostClock, Round, load_references
from tracing import Tracer, install

NAME = "fig6-flow"
OP = "full flow"
SEQUENCES = ("synthetic", "gradient", "photo", "checkerboard", "text",
             "blobs")
INTERCONNECTS = ("fsl", "noc")
MEASURE_ITERATIONS = 24
WARMUP_ITERATIONS = 4


def prepare() -> None:
    import repro.flow  # noqa: F401
    import repro.mjpeg  # noqa: F401


def setup(work, seed: int) -> Dict[str, Any]:
    """The case-study inputs: 10-block MCUs, structured content at
    quality 75 and the high-entropy synthetic sequence at quality 98."""
    from repro.mjpeg import (
        build_mjpeg_application,
        encode_sequence,
        synthetic_sequence,
        test_set_sequences,
    )

    encoded = {
        name: encode_sequence(frames, quality=75, h=4, v=2)
        for name, frames in test_set_sequences(n_frames=2).items()
    }
    encoded["synthetic"] = encode_sequence(
        synthetic_sequence(n_frames=2), quality=98, h=4, v=2
    )
    return {
        "apps": {
            name: build_mjpeg_application(encoded[name])
            for name in SEQUENCES
        }
    }


def run_flow(state, name: str, interconnect: str):
    from repro.arch import architecture_from_template
    from repro.flow import DesignFlow

    arch = architecture_from_template(5, interconnect)
    return DesignFlow(state["apps"][name], arch, fixed={"VLD": "tile0"}).run(
        iterations=MEASURE_ITERATIONS,
        warmup_iterations=WARMUP_ITERATIONS,
    )


def flows():
    """``(key, sequence, interconnect)`` for every flow of a pass."""
    for interconnect in INTERCONNECTS:
        for name in SEQUENCES:
            yield f"{interconnect}/{name}", name, interconnect


def outputs(result) -> Dict[str, str]:
    return {
        "guaranteed": str(result.guaranteed_throughput),
        "measured": str(result.measured_throughput),
    }


def run_round(state, seed: int, tracer: Optional[Tracer]) -> Round:
    out = Round()
    expected = load_references(NAME)
    patches = install(tracer) if tracer is not None else None
    clock = HostClock(every=LAP_S)
    if tracer is not None:
        tracer.clock = clock.now
    try:
        for key, name, interconnect in flows():
            start = clock.now()
            result = run_flow(state, name, interconnect)
            clock.op(start)
            found = outputs(result)
            if result.measured_throughput < result.guaranteed_throughput:
                out.fail(f"{key}: measured {found['measured']} below the "
                         f"guarantee {found['guaranteed']}")
            elif found != expected.get(key):
                out.fail(f"{key}: got {found}, recorded "
                         f"{expected.get(key)}")
    finally:
        out.timed_by(clock)
        if patches is not None:
            patches.restore()
    if tracer is not None:
        out.trace = tracer.snapshot()
    return out


def record(state) -> Dict[str, Any]:
    return {key: outputs(run_flow(state, name, interconnect))
            for key, name, interconnect in flows()}
