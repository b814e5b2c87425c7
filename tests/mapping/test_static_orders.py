"""Static orders from completion order equal the trace-and-sort recipe.

:func:`repro.mapping.scheduling.build_static_orders` takes each tile's
order from the completion order of application firings on the shared
simulator.  The oracle (:mod:`tests.sdf.static_orders`) records a full
trace on the reference simulator, sorts it by (start, end) and appends
the firings still in flight in actor order.  Every derivation the mapping
flow performs -- including buffer-growth retries -- is checked against
the oracle on the bound graph it was called with.

The corpus's ``diamond-s7`` stress band (24-actor diamonds with long
state spaces) dominates this file's time, so tier-1 maps each of its
scenarios under the greedy binder only.  Raising ``FUZZ_SCENARIOS`` above
its tier-1 default (CI's fuzz-smoke job sets 200) maps the band under
every binder too.
"""

import os
from pathlib import Path

import pytest

from repro.arch import architecture_from_template
from repro.exceptions import ReproError
from repro.flow.spec import build_case_study_app, load_flow_spec
from repro.mapping import map_application, pipeline
from repro.mapping.bound_graph import BoundGraph
from repro.mapping.pipeline import StrategyTuple
from repro.mapping.scheduling import build_static_orders
from repro.scenarios import generate_scenarios, scenario_flow_spec
from repro.sdf import SDFGraph
from tests.sdf.static_orders import derive_static_orders

BINDINGS = ("greedy", "spiral", "ga", "energy")
CORPUS = sorted(
    (Path(__file__).resolve().parents[2] / "examples" / "corpus").glob(
        "*.toml"
    )
)
FUZZ = generate_scenarios("all", 10, seed=2024)
#: the stress band runs every binder only in the large fuzz sweep
FULL_STRESS_BAND = int(os.environ.get("FUZZ_SCENARIOS", "25")) > 25


@pytest.fixture
def derivations(monkeypatch):
    """Every static-order derivation of the flow, next to its oracle."""
    checked = []
    real = pipeline.build_static_orders

    def compared(bound):
        orders = real(bound)
        oracle = derive_static_orders(
            bound.graph, bound.processor_of, bound.app_actors
        )
        checked.append(
            ({tile: order for tile, order in orders.items() if order},
             oracle)
        )
        return orders

    monkeypatch.setattr(pipeline, "build_static_orders", compared)
    return checked


def _map_under_binders(app, arch, bindings=BINDINGS):
    for binding in bindings:
        strategies = StrategyTuple(
            binding=binding, seed=7 if binding == "ga" else None
        )
        try:
            map_application(app, arch, pipeline=strategies.build_pipeline())
        except ReproError:
            pass  # an infeasible point still derived (and checked) orders


def _assert_identical(derivations):
    assert derivations, "the flow derived no static orders"
    for orders, oracle in derivations:
        assert orders == oracle


@pytest.mark.parametrize(
    "spec", FUZZ, ids=[spec.name for spec in FUZZ]
)
def test_fuzz_scenarios(spec, derivations):
    flow_spec = scenario_flow_spec(spec)
    _map_under_binders(
        flow_spec.build_application(), flow_spec.build_architecture()
    )
    _assert_identical(derivations)


@pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
def test_corpus_scenarios(path, derivations):
    flow_spec = load_flow_spec(path)
    stress = path.stem.startswith("diamond-s7-")
    _map_under_binders(
        flow_spec.build_application(), flow_spec.build_architecture(),
        BINDINGS if FULL_STRESS_BAND or not stress else ("greedy",),
    )
    _assert_identical(derivations)


@pytest.mark.parametrize("interconnect", ("fsl", "noc"))
def test_mjpeg_on_fig6_platforms(interconnect, derivations):
    app = build_case_study_app("gradient", frames=1)
    arch = architecture_from_template(5, interconnect)
    map_application(app, arch, fixed={"VLD": "tile0"})
    _assert_identical(derivations)


def _zero_duration_tail(app_actors):
    """C (3 cycles) enables A and B (0 cycles each) on the same tile, so
    the derivation ends with two zero-duration firings in flight."""
    g = SDFGraph("zero-tail")
    g.add_actor("A", execution_time=0)
    g.add_actor("B", execution_time=0)
    g.add_actor("C", execution_time=3)
    g.add_edge("ca", "C", "A")
    g.add_edge("cb", "C", "B")
    g.add_edge("ac", "A", "C", initial_tokens=1)
    g.add_edge("bc", "B", "C", initial_tokens=1)
    return BoundGraph(
        graph=g,
        processor_of={"A": "t0", "B": "t0", "C": "t0"},
        app_actors=app_actors,
        comm_names={},
    )


def test_zero_duration_firings_in_flight():
    # App actors listed in graph order, as build_bound_graph lists them:
    # completion order and the oracle's actor-order tail coincide.
    bound = _zero_duration_tail(("A", "B", "C"))
    orders = build_static_orders(bound)
    assert orders == {"t0": ["C", "A", "B"]}
    assert orders == derive_static_orders(
        bound.graph, bound.processor_of, bound.app_actors
    )


def test_zero_duration_tail_follows_completion_order():
    # The one case the two rules part: in-flight firings whose actor
    # order differs from their start order.  Completion order follows
    # start order; the oracle's tail follows the listed actor order.
    bound = _zero_duration_tail(("B", "A", "C"))
    assert build_static_orders(bound) == {"t0": ["C", "A", "B"]}
    assert derive_static_orders(
        bound.graph, bound.processor_of, bound.app_actors
    ) == {"t0": ["C", "B", "A"]}
