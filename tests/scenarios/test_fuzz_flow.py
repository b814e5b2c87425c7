"""Property-based fuzzing of the whole flow over generated scenarios.

Every seeded scenario must uphold four end-to-end properties:

1. **validity** -- the generated graph passes repetition-vector and
   deadlock validation (or generation fails with the typed
   :class:`ScenarioError`, never an exception from deeper layers);
2. **differential throughput** -- the incremental dirty-set simulator
   and the retained full-rescan reference agree on the *exact*
   ``Fraction`` throughput of the buffered graph;
3. **artifact round-trip** -- the mapping result re-encodes
   byte-identically after a decode/encode cycle, so persisted
   workspaces mean what they say;
4. **energy determinism** -- the mapped application's energy estimate
   (:mod:`repro.power`) is finite, positive, and byte-identical across
   repeated evaluations and artifact round-trips.

The sweep size scales with the ``FUZZ_SCENARIOS`` environment variable:
a small always-on sweep keeps the tier-1 suite fast, and CI's
fuzz-smoke job runs hundreds (see .github/workflows/ci.yml).
"""

import os

import pytest

from repro.artifacts import canonical_json, from_payload, to_payload
from repro.flow.session import execute_spec
from repro.mapping import map_application
from repro.scenarios import (
    ScenarioError,
    ScenarioSpec,
    build_scenario_graph,
    generate_scenarios,
    scenario_flow_spec,
)
from repro.sdf import check_well_formed
from repro.sdf.buffers import (
    BufferDistribution,
    add_buffer_edges,
    bufferable_edges,
    minimal_capacity_bound,
)
from repro.sdf.deadlock import is_deadlock_free
from repro.sdf.engine import ThroughputEngine
from repro.sdf.throughput import analyze_throughput
from tests.sdf.simulation_reference import reference_analyze_throughput

#: tier-1 default; CI sets FUZZ_SCENARIOS=200 in the fuzz-smoke job
SWEEP = max(5, int(os.environ.get("FUZZ_SCENARIOS", "25")))

SCENARIOS = generate_scenarios("all", SWEEP, seed=2024)
IDS = [spec.name for spec in SCENARIOS]


def _bounded(graph):
    """The analysis form: credit back-edges at the structural liveness
    bound plus headroom (mirrors buffer-sizing phase 1)."""
    capacities = {
        edge.name: minimal_capacity_bound(edge)
        + max(edge.production, edge.consumption)
        for edge in bufferable_edges(graph)
    }
    bounded = add_buffer_edges(graph, BufferDistribution(capacities))
    for _ in range(4):
        if is_deadlock_free(bounded):
            return bounded
        for name in capacities:
            edge = graph.edge(name)
            capacities[name] += max(edge.production, edge.consumption)
        bounded = add_buffer_edges(graph, BufferDistribution(capacities))
    return bounded


@pytest.mark.parametrize(
    "spec", SCENARIOS, ids=IDS
)
class TestSweep:
    def test_generated_graph_is_valid_or_typed_rejection(self, spec):
        try:
            graph = build_scenario_graph(spec)
        except ScenarioError:
            return  # the typed rejection is an acceptable outcome
        check_well_formed(graph)

    def test_incremental_matches_reference_exactly(self, spec):
        bounded = _bounded(build_scenario_graph(spec))
        # Bit-identical fields: throughput, period, transient, ...
        slow = reference_analyze_throughput(bounded)
        assert ThroughputEngine(bounded).analyze() == slow
        assert analyze_throughput(bounded) == slow

    def test_mapping_result_round_trips_byte_identically(self, spec):
        flow_spec = scenario_flow_spec(spec)
        result = map_application(
            flow_spec.build_application(),
            flow_spec.build_architecture(),
            pipeline=flow_spec.strategies.build_pipeline(),
        )
        assert result.guaranteed_throughput is not None
        payload = to_payload(result)
        encoded = canonical_json(payload)
        clone = from_payload(payload)
        assert canonical_json(to_payload(clone)) == encoded

    def test_energy_estimate_is_positive_and_deterministic(self, spec):
        from repro.power import application_energy

        flow_spec = scenario_flow_spec(spec)
        app = flow_spec.build_application()
        arch = flow_spec.build_architecture()
        result = map_application(
            app, arch, pipeline=flow_spec.strategies.build_pipeline()
        )
        energy = application_energy(app, result, arch)
        # finite and positive: every mapped scenario burns compute and
        # leaks static power over its period
        assert energy.total_pj > 0
        assert energy.compute_pj > 0
        assert energy.static_pj > 0
        assert energy.communication_pj >= 0
        # byte-identical across repeated evaluations ...
        again = application_energy(app, result, arch)
        assert again == energy
        assert canonical_json(to_payload(again)) == canonical_json(
            to_payload(energy)
        )
        # ... and across an artifact round-trip
        payload = to_payload(energy)
        clone = from_payload(payload)
        assert canonical_json(to_payload(clone)) == canonical_json(
            payload
        )
        assert clone == energy


class TestEndToEnd:
    """A few scenarios through the persistent session machinery."""

    @pytest.mark.parametrize(
        "spec", SCENARIOS[:3], ids=IDS[:3]
    )
    def test_execute_and_resume(self, spec, tmp_path):
        flow_spec = scenario_flow_spec(spec)
        first = execute_spec(flow_spec, tmp_path)
        assert not first.resumed_stages
        assert first.guarantees()
        again = execute_spec(flow_spec, tmp_path)
        # every stage resumes from artifacts: the scenario's content
        # keys are stable across runs
        assert sorted(again.resumed_stages) == \
            sorted(record.stage for record in again.stages)
        assert again.guarantees() == first.guarantees()

    def test_invalid_scenario_surfaces_typed_error(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(family="chain", seed=1, actors=2000)
