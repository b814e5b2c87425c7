"""``explore-mjpeg``: one cold-cache design-space sweep per round.

The mapping critical path (bind -> route -> buffer growth -> bound
graph -> static orders -> analysis -> power) with no persistence, HTTP
or platform simulation.  The MJPEG case study (gradient sequence, VLD
pinned to tile0) is swept over 1-6 tiles x {fsl, noc} x CA {off, on}
under the 5-tile Fig. 6 worst case as constraint, which keeps the
buffer-growth loop busy; the power model is on with a budget that
never binds.  Inputs are fixed: the seed does not change the work.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Any, Dict, Optional

from common import LAP_S, HostClock, Round, load_references
from tracing import Patches, Tracer, install

NAME = "explore-mjpeg"
OP = "design point"
#: The 5-tile Fig. 6 worst-case guarantee (iterations per cycle).
CONSTRAINT = Fraction(1, 4231920)
#: A platform power budget (mW) no point of the space reaches.
POWER_BUDGET = Fraction(10 ** 9)
FIXED = {"VLD": "tile0"}


def prepare() -> None:
    import repro.flow.dse  # noqa: F401
    import repro.flow.spec  # noqa: F401


def setup(work, seed: int) -> Dict[str, Any]:
    from repro.flow.spec import build_case_study_app

    return {"app": build_case_study_app("gradient")}


def sweep(app):
    from repro.flow.dse import EvaluationCache, explore_design_space

    return explore_design_space(
        app,
        tile_counts=range(1, 7),
        interconnects=("fsl", "noc"),
        ca_options=(False, True),
        constraint=CONSTRAINT,
        fixed=FIXED,
        power_budget=POWER_BUDGET,
        cache=EvaluationCache(),
    )


def outcomes(result) -> Dict[str, Dict[str, Any]]:
    """Every point's checked outputs, keyed by label."""
    found: Dict[str, Dict[str, Any]] = {}
    for point in result.points:
        found[point.label] = {
            "throughput": str(point.throughput),
            "slices": point.area.slices,
            "brams": point.area.brams,
            "constraint_met": point.constraint_met,
        }
    for label, reason in result.failures:
        found[label] = {"infeasible": reason}
    return found


def run_round(state, seed: int, tracer: Optional[Tracer]) -> Round:
    from repro.flow.dse import Evaluator

    out = Round()
    trace_patches = install(tracer) if tracer is not None else None
    evaluate = Evaluator.evaluate
    clock = HostClock(every=LAP_S)
    if tracer is not None:
        tracer.clock = clock.now

    def timed(self, candidate):
        start = clock.now()
        try:
            return evaluate(self, candidate)
        finally:
            clock.op(start)

    op_timer = Patches()
    op_timer.set(Evaluator, "evaluate", timed)
    try:
        result = sweep(state["app"])
    finally:
        out.timed_by(clock)
        op_timer.restore()
        if trace_patches is not None:
            trace_patches.restore()
    if tracer is not None:
        out.trace = tracer.snapshot()

    expected = load_references(NAME)
    found = outcomes(result)
    for label in sorted(set(expected) | set(found)):
        if found.get(label) != expected.get(label):
            out.fail(
                f"{label}: got {found.get(label)}, "
                f"recorded {expected.get(label)}"
            )
    return out


def record(state) -> Dict[str, Any]:
    return outcomes(sweep(state["app"]))
