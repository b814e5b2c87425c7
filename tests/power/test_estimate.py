"""Tests for platform power / application energy estimation."""

from fractions import Fraction

import pytest

from repro import counters
from repro.arch import architecture_from_template
from repro.artifacts import canonical_json, from_payload, to_payload
from repro.exceptions import PowerError
from repro.mapping import map_application
from repro.power import (
    EnergyEstimate,
    PowerEstimate,
    PowerModel,
    application_energy,
    platform_power,
)
from repro.scenarios import generate_scenarios, scenario_flow_spec


@pytest.fixture(scope="module")
def mapped_scenario():
    """One mapped synthetic scenario: (app, arch, result)."""
    spec = generate_scenarios("chain", 1, seed=7)[0]
    flow_spec = scenario_flow_spec(spec)
    app = flow_spec.build_application()
    arch = flow_spec.build_architecture()
    result = map_application(
        app, arch, pipeline=flow_spec.strategies.build_pipeline()
    )
    return app, arch, result


class TestPlatformPower:
    def test_totals_and_split(self):
        arch = architecture_from_template(3, "noc")
        estimate = platform_power(arch)
        assert estimate.total_mw == (
            estimate.static_mw + estimate.dynamic_mw
        )
        assert estimate.static_mw > 0
        assert estimate.dynamic_mw > estimate.static_mw

    def test_more_tiles_draw_more_power(self):
        small = platform_power(architecture_from_template(2, "fsl"))
        large = platform_power(architecture_from_template(4, "fsl"))
        assert large.total_mw > small.total_mw

    def test_scaling_directions(self):
        arch = architecture_from_template(3, "fsl")
        base = platform_power(arch, PowerModel())
        shrunk = platform_power(arch, PowerModel(tech_nm=22))
        assert shrunk.dynamic_mw == base.dynamic_mw / 2
        assert shrunk.static_mw == base.static_mw * 2
        assert shrunk.tech_nm == 22

    def test_within_budget_semantics(self):
        estimate = PowerEstimate(
            static_mw=Fraction(10), dynamic_mw=Fraction(90), tech_nm=45
        )
        assert estimate.within_budget(None)  # no budget: always fine
        assert estimate.within_budget(Fraction(100))  # inclusive
        assert not estimate.within_budget(Fraction(99))

    def test_payload_round_trip_is_byte_identical(self):
        arch = architecture_from_template(2, "noc")
        estimate = platform_power(arch, PowerModel(tech_nm=16))
        payload = to_payload(estimate)
        clone = from_payload(payload)
        assert clone == estimate
        assert canonical_json(to_payload(clone)) == canonical_json(
            payload
        )

    def test_counts_into_process_counters(self):
        before = counters.PROCESS.snapshot("power")["platform"]
        platform_power(architecture_from_template(1, "fsl"))
        assert counters.PROCESS.snapshot("power")["platform"] == before + 1


class TestApplicationEnergy:
    def test_terms_are_positive(self, mapped_scenario):
        app, arch, result = mapped_scenario
        energy = application_energy(app, result, arch)
        assert energy.compute_pj > 0
        assert energy.static_pj > 0
        assert energy.communication_pj >= 0
        assert energy.total_pj == (
            energy.compute_pj
            + energy.communication_pj
            + energy.static_pj
        )
        assert energy.total_nj == energy.total_pj / 1000

    def test_deterministic_across_evaluations(self, mapped_scenario):
        app, arch, result = mapped_scenario
        assert application_energy(
            app, result, arch
        ) == application_energy(app, result, arch)

    def test_dynamic_terms_shrink_with_the_node(self, mapped_scenario):
        app, arch, result = mapped_scenario
        base = application_energy(app, result, arch)
        shrunk = application_energy(
            app, result, arch, PowerModel(tech_nm=16)
        )
        assert shrunk.compute_pj == base.compute_pj * Fraction(3, 8)
        assert shrunk.static_pj == base.static_pj * 3

    def test_zero_throughput_mapping_rejected(self, mapped_scenario):
        app, arch, result = mapped_scenario

        class Stalled:
            guaranteed_throughput = None

        with pytest.raises(PowerError, match="without a positive"):
            application_energy(app, Stalled(), arch)

        class Zero:
            guaranteed_throughput = Fraction(0)

        with pytest.raises(PowerError, match="without a positive"):
            application_energy(app, Zero(), arch)

    def test_energy_payload_round_trip(self, mapped_scenario):
        app, arch, result = mapped_scenario
        energy = application_energy(app, result, arch)
        payload = to_payload(energy)
        clone = from_payload(payload)
        assert isinstance(clone, EnergyEstimate)
        assert clone == energy
        assert canonical_json(to_payload(clone)) == canonical_json(
            payload
        )

    def test_within_budget_checks_nanojoules(self, mapped_scenario):
        app, arch, result = mapped_scenario
        energy = application_energy(app, result, arch)
        assert energy.within_budget(None)
        assert energy.within_budget(energy.total_nj)
        assert not energy.within_budget(energy.total_nj - Fraction(1))

    def test_counts_into_process_counters(self, mapped_scenario):
        app, arch, result = mapped_scenario
        before = counters.PROCESS.snapshot("power")["application"]
        application_energy(app, result, arch)
        assert (
            counters.PROCESS.snapshot("power")["application"] == before + 1
        )
