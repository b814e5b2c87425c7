"""Differential tests: the throughput engine vs. two independent oracles.

Over the committed example corpus (``examples/corpus/``) and seeded fuzz
scenarios, the engine must agree field for field with the retained
full-rescan state-space reference (``tests/sdf/simulation_reference.py``),
and in the exact ``Fraction`` with the HSDF + maximum-cycle-mean oracle
(``tests/sdf/mcm.py``) wherever HSDF can express the graph: strongly
connected, no binding, no static order, auto-concurrency 1.
"""

from fractions import Fraction
from pathlib import Path

import pytest

from repro.flow.spec import load_flow_spec
from repro.scenarios import generate_scenarios, build_scenario_graph
from repro.sdf.buffers import (
    BufferDistribution,
    add_buffer_edges,
    bufferable_edges,
    minimal_capacity_bound,
)
from repro.sdf.deadlock import is_deadlock_free
from repro.sdf.engine import ThroughputEngine
from repro.sdf.throughput import analyze_throughput
from tests.sdf.hsdf import is_strongly_connected
from tests.sdf.mcm import analytic_throughput
from tests.sdf.simulation_reference import reference_analyze_throughput

CORPUS = sorted(
    (Path(__file__).resolve().parents[2] / "examples" / "corpus").glob(
        "*.toml"
    )
)

FUZZ_SCENARIOS = generate_scenarios("all", 20, seed=42)


def _bounded(graph):
    """Analysis form: credit back-edges at the structural liveness bound
    plus headroom (mirrors buffer-sizing phase 1)."""
    capacities = {
        edge.name: minimal_capacity_bound(edge)
        + max(edge.production, edge.consumption)
        for edge in bufferable_edges(graph)
    }
    bounded = add_buffer_edges(graph, BufferDistribution(capacities))
    for _ in range(4):
        if is_deadlock_free(bounded):
            break
        for name in capacities:
            edge = graph.edge(name)
            capacities[name] += max(edge.production, edge.consumption)
        bounded = add_buffer_edges(graph, BufferDistribution(capacities))
    return bounded


def assert_engine_matches_oracles(bounded):
    result = ThroughputEngine(bounded).analyze()
    assert result.tier == "vectorized"
    # Equality is field for field (period, transient, ...): the engine
    # replays the oracle's recurrence.
    assert result == reference_analyze_throughput(bounded)
    if is_strongly_connected(bounded):
        assert analytic_throughput(bounded).throughput == result.throughput


@pytest.mark.parametrize(
    "spec_path", CORPUS, ids=[p.stem for p in CORPUS]
)
def test_corpus_matches_oracles(spec_path):
    graph = load_flow_spec(spec_path).build_application().graph
    assert_engine_matches_oracles(_bounded(graph))


@pytest.mark.parametrize(
    "spec", FUZZ_SCENARIOS, ids=[s.name for s in FUZZ_SCENARIOS]
)
def test_fuzz_matches_oracles(spec):
    graph = build_scenario_graph(spec)
    assert_engine_matches_oracles(_bounded(graph))


def test_corpus_is_present():
    """The sweep must not silently shrink to nothing."""
    assert len(CORPUS) >= 10


def test_bound_variant_matches_reference():
    """A bound variant (one shared processor, no static order) stays
    field-exact against the oracle."""
    graph = _bounded(build_scenario_graph(FUZZ_SCENARIOS[0]))
    processor_of = {a.name: "tile0" for a in graph}
    result = ThroughputEngine(graph, processor_of=processor_of).analyze()
    assert result == reference_analyze_throughput(
        graph, processor_of=processor_of
    )


#: The stress-band graphs whose state space outlived the probe of the
#: removed HSDF fast path, with the MCM oracle's throughput.
LONG_TRANSIENT = {
    "diamond-s7-04": Fraction(1, 504),
    "diamond-s7-05": Fraction(1, 573),
    "diamond-s7-06": Fraction(1, 387),
    "diamond-s7-07": Fraction(1, 447),
    "diamond-s7-11": Fraction(1, 382),
}


@pytest.mark.parametrize("name", sorted(LONG_TRANSIENT))
def test_long_transient_band_within_default_budget(name):
    """The state-space run alone solves the long-transient band at the
    default 10,000-iteration budget, with the MCM oracle's Fraction."""
    path = CORPUS[0].parent / f"{name}.toml"
    bounded = _bounded(load_flow_spec(path).build_application().graph)
    result = analyze_throughput(bounded)
    assert result.throughput == LONG_TRANSIENT[name]
    assert result.throughput == analytic_throughput(bounded).throughput
