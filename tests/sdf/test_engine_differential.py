"""Differential tests: engine tiers vs. the state-space oracle.

Whatever tier the adaptive policy lands on -- vectorized via the probe,
analytic after escalation, vectorized again after a declined transform
or a blown relaxation budget -- the engine must produce the *same exact*
``Fraction`` throughput as the retained full-rescan state-space
reference, over the committed example corpus (``examples/corpus/``) and
over seeded fuzz scenarios.  On top of that the analytic tier (HSDF
transform + maximum cycle mean) is called directly on every graph the
engine finds eligible, so its exactness is checked even where the probe
would have answered first.
"""

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
from repro.sdf.engine import ThroughputEngine, analytic_throughput
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


def assert_engine_matches_oracle(bounded):
    """Exact-Fraction agreement for auto *and* for the analytic tier."""
    engine = ThroughputEngine(bounded)
    result = engine.analyze()
    oracle = reference_analyze_throughput(bounded)
    assert result.throughput == oracle.throughput
    assert result.tier_reason is not None
    if result.tier == "vectorized":
        # Simulation tiers replay the oracle's recurrence: every field
        # is bit-identical, not just the throughput.
        assert result.period == oracle.period
        assert result.transient_iterations == oracle.transient_iterations
        assert (result.iterations_per_period
                == oracle.iterations_per_period)
    if engine.analytic_decline_reason is not None:
        assert result.tier == "vectorized"
        assert result.tier_reason == engine.analytic_decline_reason
    else:
        # Eligible graph: the probe either answered (vectorized) or
        # escalated (analytic); run the analytic tier regardless so
        # the transform itself is differentially checked everywhere it
        # is tractable.
        analytic = analytic_throughput(bounded)
        assert analytic.tier == "analytic"
        assert analytic.throughput == oracle.throughput


@pytest.mark.parametrize(
    "spec_path", CORPUS, ids=[p.stem for p in CORPUS]
)
def test_corpus_analytic_matches_reference(spec_path):
    graph = load_flow_spec(spec_path).build_application().graph
    assert_engine_matches_oracle(_bounded(graph))


@pytest.mark.parametrize(
    "spec", FUZZ_SCENARIOS, ids=[s.name for s in FUZZ_SCENARIOS]
)
def test_fuzz_analytic_matches_reference(spec):
    graph = build_scenario_graph(spec)
    assert_engine_matches_oracle(_bounded(graph))


def test_corpus_is_present():
    """The sweep must not silently shrink to nothing."""
    assert len(CORPUS) >= 10


def test_declined_transform_cases_occur_in_sweep():
    """The sweep exercises the fallback path, not only the fast path:
    at least one mapped variant declines (static orders) and records
    why."""
    graph = _bounded(build_scenario_graph(FUZZ_SCENARIOS[0]))
    actors = [a.name for a in graph]
    engine = ThroughputEngine(
        graph,
        processor_of={a: "tile0" for a in actors},
        static_order=None,
    )
    assert engine.analytic_decline_reason is not None
    result = engine.analyze()
    assert result.tier == "vectorized"
    assert result.tier_reason == engine.analytic_decline_reason
    oracle = reference_analyze_throughput(
        graph, processor_of={a: "tile0" for a in actors}
    )
    assert result.throughput == oracle.throughput
    assert result.period == oracle.period
